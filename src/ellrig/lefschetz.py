"""Equivariant Lefschetz functions over fixed-point data.

A document lists fixed components; each carries tangent root symbols (one
per +-pair), rotated normal pieces, rotated fiber pieces of the auxiliary
bundle, and a linear functional on top-degree monomials standing in for
integration over the component.  The engine assembles the all-theta
integrand of the twisted spinor ladders at numeric (t, tau), extracts the
top-degree part, pairs it against the functional, and sums over components.

On top of plain evaluation it verifies the structural laws, each by one
route: :func:`periodicity_residual` for t -> t + a,
:func:`translation_anomaly_check` for t -> t + a tau (the multiplier of
each component from :func:`component_anomaly`),
:func:`anomaly_condition_check` for the vanishing conditions,
:func:`modular_residual` for the S/T weights with the ladder permutations,
:func:`rigidity_sweep` over a t-grid, and :func:`pole_scan` for the pole
bookkeeping.

Every integrand is an even kernel times the odd factors.  Each even factor
is a product of univariate functions, one per pair (a tangent root y, v =
y, or a rotated normal piece, v = x + m t) or fiber (z + n t), so the
kernel separates as C sum_slot prod_symbol S_slot,symbol(x) (Liu's method):

- a Phi0-class factor (Phi0, Phi, Psi1-3) gives Liu's all-theta kernel,
  C prod_p theta'(0)/theta(v_p) sum_k prod_p theta_k(v_p)/theta_k(0), one
  slot per even kind k, C = 2^(pairs) pi^(-normal pieces), theta(y)/y in
  place of theta(y); without one, the bare kernel has one slot, C = 1, and
  1/sinc(y) and 1/sin(pi(x + m t));
- Q_jV gives theta_j(z + n t)/theta_j(0), twice that for j = 1, and DeltaV
  2 cos(pi(z + n t)), per fiber; Theta_j gives theta'(0) sin(pi w)
  theta_j(w) / (pi theta(w) theta_j(0)) per pair at w = v, over cos(pi w)
  for j = 1.

:func:`_even_kernel` forms each factor's series at each pair or fiber to
the top power its component's plan needs of the symbol (:class:`_EvenPlan`:
the divisors of the functional's keys), by scalar series arithmetic from
one Fourier pass per lattice of kinds (:func:`ellrig.theta.theta_jets`), an
exponent as a series power; it multiplies the series of one symbol and
makes one pass per slot over the plan's monomials into a dict of terms.  No
ring product is taken: an odd factor (:func:`ellrig.twist.odd_ch_Q`)
pairs with the kernel term by term (:func:`assemble_integrand`), and the
anomaly exponential is a divisor sum at each key (:func:`_times_exponential`).

Several of those laws evaluate L again at one base point (t, tau).  Inside
:func:`integrand_memo`, the scope the CLI's ``rigidity`` and ``odd-check``
each enter once, one table holds two kinds of entry.  :func:`assemble_integrand`
builds each component integrand once per component context, t, tau value
and twist; the context carries its document's odd map.  Each factor's
series at a pair or fiber is built once per factor, centre, tau value and
whether the top power is above 0, and shared by every component and twist;
the table keeps the longest series asked for, whose prefix is a shorter
one, bit for bit.  Keys tell signed zeros apart; an error is not stored, so
a pole raises on every call; values are shared and never mutated.  The
table holds t, so it lives in the command scope, not on the TauPoint stage.
Outside the scope every call builds afresh and keeps nothing.
"""

from __future__ import annotations

import cmath
import contextlib
import contextvars
import itertools
import json
import math
import warnings
from collections import namedtuple
from fractions import Fraction

from .errors import (
    CapacityError,
    EllrigError,
    IgnoredDataWarning,
    PreconditionError,
    SchemaError,
    SingularFactorError,
    WeightMismatchWarning,
)
from .record import Record
from .theta import (
    THETA_KINDS,
    TWO_PI_I,
    MoebiusMatrix,
    TauPoint,
    ThetaKind,
    _values_at_zero,
    moebius_act,
    theta_jets,
    theta_zero_location,
)
from .twist import (
    ROLES,
    OddMapData,
    TwistFactor,
    TwistSpec,
    generator_weight,
    odd_ch_Q,
    spinor_shift,
)

TOL_COMPOSITE = 1e-7
EVEN_KINDS = tuple(kind for kind in THETA_KINDS if not kind.odd)


def parse_monomial(text):
    """Parse 'y1^2 z1' (or '1' for the empty monomial) into a name->power map."""
    text = text.strip()
    result = {}
    if text in ("", "1"):
        return result
    for token in text.split():
        name, _, power = token.partition("^")
        try:
            power = int(power or 1)
            if power < 1:
                raise ValueError
        except ValueError:
            raise SchemaError("powers in monomial keys must be positive integers: %r"
                              % token) from None
        result[name] = result.get(name, 0) + power
    return result


class FixedComponentData(Record):
    """One fixed component: root symbols, rotations ((symbol, m != 0) pairs
    in ``normal``, (symbol, n) pairs in ``v_fibers``), and the intersection
    functional on monomials of total weighted degree exactly ``cap``, whose
    values become Fractions (a Fraction, as the loader gives, is kept)."""

    __slots__ = _fields = ("name", "tangent_roots", "normal", "v_fibers", "v_real_roots",
                           "intersection", "cap")

    def __init__(self, name, tangent_roots=(), normal=(), v_fibers=(), v_real_roots=(),
                 intersection=None, cap=0):
        normal = tuple((str(s), int(m)) for s, m in normal)
        v_fibers = tuple((str(s), int(n)) for s, n in v_fibers)
        v_real_roots = tuple(v_real_roots)
        for s, m in normal:
            if m == 0:
                raise SchemaError("component %r: normal piece %r has rotation 0; normal "
                                  "directions of a fixed set are rotated" % (name, s))
        if v_real_roots:
            warnings.warn("component %r: real-subbundle roots %r are accepted but ignored by "
                          "every evaluation" % (name, v_real_roots), IgnoredDataWarning, 2)
        intersection = {str(k): v if type(v) is Fraction
                        else _rational(v, "component %r: intersection" % (name,), k)
                        for k, v in (intersection or {}).items()}
        self._set(name, tuple(tangent_roots), normal, v_fibers, v_real_roots, intersection, cap)

    def even_symbols(self):
        """Every root symbol once, in order of first appearance."""
        return tuple(dict.fromkeys((*self.tangent_roots, *(s for s, _ in self.normal),
                                    *(s for s, _ in self.v_fibers), *self.v_real_roots)))


class ComponentContext:
    """Resolved monomial index and functional for one component.

    ``names`` indexes the exponents of every monomial: the root symbols,
    then the odd trace generators of the document's odd map ``odd_map``
    (None on an even document), whose names no root symbol may take.
    :meth:`pair` reads only the keys with a nonzero value, and the even
    kernel computes only the monomials those keys need (:class:`_EvenPlan`).
    ``zero_order`` is the order to which the even kernel sums the jets of
    theta at 0 when it needs theta'(0) (:class:`FixedPointData`).
    """

    def __init__(self, comp, odd_map=None, zero_order=1):
        self.comp, self.odd_map, self.zero_order = comp, odd_map, zero_order
        roots = comp.even_symbols()
        trace = () if odd_map is None else odd_map.trace_generator_names(comp.cap)
        for name in roots:
            if name in trace:
                raise SchemaError(
                    "component %r: root symbol %r is also the name of an odd "
                    "trace generator" % (comp.name, name))
        self.names = names = roots + trace
        # the keys with a nonzero value, and the floats pair() multiplies by
        self._weights = {}
        for key, value in comp.intersection.items():
            powers = parse_monomial(key)
            for name in powers:
                if name not in names:
                    raise SchemaError("unknown symbol %r in monomial %r" % (name, key.strip()))
            degree = _degree(powers, roots)
            if degree != comp.cap:
                raise SchemaError(
                    "component %r: functional key %r has degree %d, cap is %d"
                    % (comp.name, key, degree, comp.cap)
                )
            if sum(powers.get(name, 0) for name in trace) > 1:
                raise SchemaError(
                    "component %r: functional key %r carries more than one odd "
                    "generator" % (comp.name, key)
                )
            if value != 0:
                self._weights[tuple(powers.get(n, 0) for n in names)] = float(value)
        self._plan = None

    def even_plan(self):
        """The :class:`_EvenPlan` of this component for the keys :meth:`pair`
        reads, made on first use."""
        if self._plan is None:
            self._plan = _EvenPlan(self.comp, self.names, self._weights)
        return self._plan

    def pair(self, terms):
        """Apply the intersection functional to a dict of terms: every key
        has degree ``cap``, so this sums the top-degree terms, in order."""
        weights = self._weights
        total = 0j
        for mono, coeff in terms.items():
            w = weights.get(mono)
            if w is not None:
                total += coeff * w
        return total


class FixedPointData(Record):
    """A full fixed-point document: components plus global parameters.
    ``contexts``, not a field, holds one :class:`ComponentContext` per component.

    Their ``zero_order`` bounds the orders at which the document's
    integrands ask the jets of theta at 0: a tangent root's series to
    x^(top + 1) with top <= cap, an odd character to x^((cap - 1)//2 + 1).
    theta'(0), which the kernel asks first, is read from a jet of that
    order, so a later, longer jet at 0 does not sum the lattice again."""

    _fields = ("components", "k", "parity", "odd_map")
    __slots__ = _fields + ("contexts",)

    def __init__(self, components, k, parity="even", odd_map=None):
        components = tuple(components)
        if parity not in ("even", "odd"):
            raise SchemaError("parity must be 'even' or 'odd'")
        if (parity == "odd") != (odd_map is not None):
            raise SchemaError("odd_map must be present exactly for odd parity")
        if k < 1:
            raise SchemaError("the dimension parameter k must be positive")
        seen = set()
        for comp in components:
            for s in comp.even_symbols():
                if s in seen:
                    raise SchemaError("symbol %r appears in more than one component; "
                                      "symbols must be disjoint" % s)
                seen.add(s)
        zero_order = max([1] + [c.cap + 1 for c in components if c.tangent_roots]
                         + [(c.cap - 1) // 2 + 1 for c in components if odd_map is not None])
        self._set(components, k, parity, odd_map,
                  tuple(ComponentContext(c, odd_map, zero_order) for c in components))


# --------------------------------------------------------------------------
# document loading
# --------------------------------------------------------------------------


def _expect(value, kind, noun, where):
    # true and false are ints to Python, never numbers in a document
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise SchemaError("%s must be %s, got %r" % (where, noun, value))
    return value


def _integer(value, where):
    """An integer field: a JSON integer or a string holding one."""
    _expect(value, (int, str), "an integer", where)
    try:
        return int(value)
    except ValueError:
        raise SchemaError("%s must be an integer, got %r" % (where, value))


def _rational(value, where, key):
    """A rational field ``where[key]``: an integer, a Fraction or a string
    such as "-1/5".  The location, with ``key`` as JSON, is written only when
    the value is refused."""
    if isinstance(value, (int, str, Fraction)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            message = "%s[%s] must be a rational, got %r"
    else:
        message = "%s[%s] must be a rational (integer or \"p/q\" string), got %r"
    raise SchemaError(message % (where, json.dumps(str(key)), value))


def _symbols(value, where):
    for i, name in enumerate(_expect(value, list, "a list", where)):
        _expect(name, str, "a symbol name", "%s[%d]" % (where, i))
    return tuple(value)


def _known_keys(obj, known, where):
    """Refuse a key the schema does not define: a misspelt key would
    otherwise drop its value and leave the default in force."""
    for key in obj:
        if key not in known:
            raise SchemaError("%s%s is not a known key; %s takes %s"
                              % (where + "." if where else "", key,
                                 where or "the document root", ", ".join(known)))


def _rotations(value, where):
    """[{"symbol": ..., "rotation": ...}, ...] as (symbol, int) pairs."""
    out = []
    for i, entry in enumerate(_expect(value, list, "a list", where)):
        at = "%s[%d]" % (where, i)
        _expect(entry, dict, "an object with symbol and rotation", at)
        _known_keys(entry, ("symbol", "rotation"), at)
        for key in ("symbol", "rotation"):
            if key not in entry:
                raise SchemaError("%s is missing %r" % (at, key))
        out.append((_expect(entry["symbol"], str, "a symbol name", at + ".symbol"),
                    _integer(entry["rotation"], at + ".rotation")))
    return tuple(out)


def _degree(powers, roots):
    """Weighted degree of a name->power map: roots weigh 1, others :func:`generator_weight`."""
    return sum((1 if name in roots else generator_weight(name)) * p
               for name, p in powers.items())


def _infer_cap(intersection, roots, where):
    """The weighted degree (:func:`_degree`) shared by a component's
    functional keys."""
    degrees = set()
    for key in intersection:
        try:
            powers = parse_monomial(key)
        except SchemaError as exc:
            raise SchemaError("%s.intersection key %s: %s" % (where, json.dumps(key), exc))
        degrees.add(_degree(powers, roots))
    if len(degrees) > 1:
        raise SchemaError("%s: functional keys mix degrees %s; give degree_cap"
                          % (where, sorted(degrees)))
    return degrees.pop() if degrees else 0


def _load_component(c, idx):
    where = "components[%d]" % idx
    _expect(c, dict, "an object", where)
    _known_keys(c, ("name", "tangent_roots", "normal", "v_fibers", "v_real_roots",
                    "intersection", "degree_cap"), where)
    at = where + ".intersection"
    intersection = {key: _rational(value, at, key) for key, value in
                    _expect(c.get("intersection", {}), dict, "an object", at).items()}
    name = _expect(c.get("name", "component-%d" % idx), str, "a string", where + ".name")
    tangent_roots = _symbols(c.get("tangent_roots", []), where + ".tangent_roots")
    normal = _rotations(c.get("normal", []), where + ".normal")
    v_fibers = _rotations(c.get("v_fibers", []), where + ".v_fibers")
    v_real_roots = _symbols(c.get("v_real_roots", []), where + ".v_real_roots")
    roots = {*tangent_roots, *dict(normal + v_fibers), *v_real_roots}
    cap = c.get("degree_cap")
    cap = (_infer_cap(intersection, roots, where) if cap is None
           else _integer(cap, where + ".degree_cap"))
    return FixedComponentData(name, tangent_roots, normal, v_fibers, v_real_roots,
                              intersection, cap)


def load_document(path):
    """Parse a fixed-point document (JSON) into ``(FixedPointData, TwistSpec)``;
    every defect raises SchemaError naming the field at fault."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SchemaError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise SchemaError("%s is not valid JSON: %s" % (path, exc))
    _expect(raw, dict, "an object", "document root")
    _known_keys(raw, ("parity", "k", "components", "odd_map", "twist"), "")
    for key in ("parity", "k", "components"):
        if key not in raw:
            raise SchemaError("missing top-level key %r" % key)
    parity = raw["parity"]
    k = _integer(raw["k"], "k")
    components = [_load_component(c, idx) for idx, c in
                  enumerate(_expect(raw["components"], list, "a list", "components"))]
    odd_map = None
    if raw.get("odd_map") is not None:
        om = _expect(raw["odd_map"], dict, "an object", "odd_map")
        _known_keys(om, ("N", "c3_vanishes"), "odd_map")
        if "N" not in om:
            raise SchemaError("odd_map is missing 'N'")
        n = _integer(om["N"], "odd_map.N")
        c3 = _expect(om.get("c3_vanishes", False), bool, "true or false",
                     "odd_map.c3_vanishes")
        try:
            odd_map = OddMapData(n, c3)
        except EllrigError as exc:
            raise SchemaError("odd_map: %s" % exc)
    twist_raw = _expect(raw.get("twist") or {"factors": ["Phi"]}, dict, "an object", "twist")
    _known_keys(twist_raw, ("factors", "exponents"), "twist")
    factors = _expect(twist_raw.get("factors"), list, "a list", "twist.factors")
    exponents = [_integer(e, "twist.exponents[%d]" % i) for i, e in enumerate(
        _expect(twist_raw.get("exponents", []), list, "a list", "twist.exponents"))]
    try:
        twist = TwistSpec(tuple(factors), tuple(exponents))
    except (EllrigError, ValueError) as exc:
        raise SchemaError("twist: %s" % exc)
    odd = [str(f) for f in twist.factors if ROLES[f][0] in ("odd", "psi")]
    if odd and odd_map is None:
        raise SchemaError("twist.factors: the odd ladders %s need an odd_map, and "
                          "the document has none" % ", ".join(odd))
    try:
        data = FixedPointData(tuple(components), k=k, parity=parity, odd_map=odd_map)
    except EllrigError as exc:
        raise SchemaError(str(exc))
    return data, twist


# --------------------------------------------------------------------------
# integrand assembly
# --------------------------------------------------------------------------


def _check_theta_pole(centre, tau, comp_name, symbol, rotation, t):
    """Raise SingularFactorError when the normal factor theta(symbol +
    rotation t), at its centre, sits on a zero of theta."""
    loc = theta_zero_location(ThetaKind.THETA, centre, tau)
    if loc is not None:
        factor = "theta(%s + %d t)" % (symbol, rotation)
        raise SingularFactorError(
            "theta vanishes at %s (lattice point %r) in component %r"
            % (factor, loc, comp_name),
            component=comp_name, factor=factor, t=t,
        )


def _integral(c):
    return c.imag == 0 and c.real.is_integer()


class _EvenPlan:
    """Which monomials the even kernel of one component computes.

    ``monomials`` holds 1, each root symbol and each divisor of a key in
    ``keys``, restricted to the root symbols (pair symbols in order of
    first appearance, tangent roots first, then the other fiber symbols)
    and to the cap, each as a monomial over ``names`` with its exponents of
    those symbols, and sorted by them.  Each term of the kernel times an
    odd factor or the anomaly exponential at a key comes from a divisor of
    it, so a functional that reads only ``keys`` reads such a product only
    through these monomials.  ``symbols`` holds, per symbol, the top power
    it reaches (the largest exponent in ``monomials``), the rotations of its
    pairs (None for a tangent root, m for a normal piece x + m t) and those
    of its fibers (n for z + n t); ``tops`` maps each symbol to its top
    power.  ``const`` is C of the Phi0 kernel.
    """

    def __init__(self, comp, names, keys):
        pairs, fibers = {}, {}
        for y in comp.tangent_roots:
            pairs.setdefault(y, []).append(None)
        for x, m in comp.normal:
            pairs.setdefault(x, []).append(m)
        for z, n in comp.v_fibers:
            fibers.setdefault(z, []).append(n)
        symbols = tuple(dict.fromkeys((*pairs, *fibers)))
        positions = [names.index(name) for name in symbols]
        wanted = {(0,) * len(positions)}
        wanted.update(tuple(int(i == j) for j in range(len(positions)))
                      for i in range(len(positions)))
        for key in keys:
            wanted.update(itertools.product(*(range(key[i] + 1) for i in positions)))
        # every root symbol weighs 1
        self.monomials = tuple(
            (tuple(dict(zip(positions, exps)).get(i, 0) for i in range(len(names))), exps)
            for exps in sorted(wanted) if sum(exps) <= comp.cap)
        tops = [max((exps[i] for _, exps in self.monomials), default=0)
                for i in range(len(positions))]
        self.symbols = tuple((top, pairs.get(name, ()), fibers.get(name, ()))
                             for name, top in zip(symbols, tops))
        self.tops = dict(zip(symbols, tops))
        self.const = 2.0 ** (len(comp.tangent_roots) + len(comp.normal)) \
            * cmath.pi ** (-len(comp.normal))


def _series_inverse(a):
    """1/a of a univariate series with a[0] != 0, to len(a) terms."""
    inv0 = 1 / a[0]
    out = [inv0]
    for j in range(1, len(a)):
        acc = 0j
        for i in range(1, j + 1):
            acc += a[i] * out[j - i]
        out.append(-acc * inv0)
    return out


def _series_product(a, b):
    """a b of two univariate series of one length, truncated to it."""
    out = []
    for j in range(len(a)):
        acc = 0j
        for i in range(j + 1):
            acc += a[i] * b[j - i]
        out.append(acc)
    return out


def _quotient(a, b, scale):
    """scale a/b of two univariate series of one length."""
    return [scale * x for x in _series_product(a, _series_inverse(b))]


def _trig_series(which, centre, top):
    """sin or cos of pi (centre + x) to x^top: pi^k/k! times the k-th
    derivative at the centre."""
    try:
        s, c = cmath.sin(cmath.pi * centre), cmath.cos(cmath.pi * centre)
    except OverflowError:
        raise CapacityError("sin and cos of pi v at v = %s overflow; |Im v| is too large"
                            % (centre,)) from None
    cycle = (s, c, -s, -c) if which == "sin" else (c, -s, -c, s)
    out, scale = [], 1.0
    for k in range(top + 1):
        out.append(cycle[k & 3] * scale)
        scale *= math.pi / (k + 1)
    return out


def _over_x(which, tau, top):
    """sin(pi x)/x or theta(x)/x to x^top: the jet at 0 shifted down by one."""
    if which == "sin":
        return _trig_series("sin", 0.0, top + 1)[1:]
    return theta_jets((ThetaKind.THETA,), 0.0, tau, top + 1)[0][1:]


def _pair_jets(kind_jets, denominator, tau, zero_order):
    """The series of g_k = theta'(0) theta_k / (theta_k(0) denominator) for
    the three even kinds, from their jets and the denominator's; theta'(0)
    from the jets at 0 to ``zero_order`` (:class:`ComponentContext`)."""
    def build():
        prime, even = _values_at_zero(tau, zero_order)
        return tuple([prime / value for value in even])

    ratios = tau.staged(("phi0_ratios",), build)
    inverse = _series_inverse(denominator)
    return tuple([r * x for x in _series_product(jet, inverse)]
                 for jet, r in zip(kind_jets, ratios))


def _symbol_series(tag, centre, tau, top, zero_order):
    """One even factor's series at one pair or fiber to x^top, one list per
    slot; theta'(0) is read from the jets at 0 to ``zero_order``.  ``tag``
    names the factor: "phi0" (a slot per even kind) or "bare" at a pair,
    with centre None for a tangent root; ("fiber", j), ("delta", 0) or
    ("tangent", j) at w = centre + x (module docstring).  At a real
    integer w, sin(pi w) and theta(w) vanish linearly and change sign alike
    under w -> w + 1, so their quotient is the one at 0, each divided by x;
    theta1(w)/cos(pi w) = theta(w + 1/2)/sin(pi(w + 1/2)) takes the same
    rule at a real half-integer w."""
    if tag == "phi0":
        if centre is None:
            theta, *even = theta_jets(THETA_KINDS, 0.0, tau, top + 1)
            return _pair_jets([jet[:top + 1] for jet in even], theta[1:], tau, zero_order)
        theta, *even = theta_jets(THETA_KINDS, centre, tau, top)
        return _pair_jets(even, theta, tau, zero_order)
    if tag == "bare":
        # 1/sinc(y) = pi y/sin(pi y), or 1/sin(pi(x + m t))
        return (_series_inverse([a / math.pi for a in _over_x("sin", tau, top)]
                                if centre is None else _trig_series("sin", centre, top)),)
    family, j = tag
    if family == "delta":
        return ([2 * a for a in _trig_series("cos", centre, top)],)
    kind, c = THETA_KINDS[j], complex(centre)
    prime, even = _values_at_zero(tau, zero_order)
    scale = 1 / even[j - 1]
    if family == "fiber":
        # the spinor doubling restores the 2 cos(pi v) of DeltaV in theta1
        return ([(2 * scale if j == 1 else scale) * a for a in theta_jets((kind,), c, tau, top)[0]],)
    if _integral(c):
        sin, theta = _over_x("sin", tau, top), _over_x("theta", tau, top)
    else:
        sin, theta = _trig_series("sin", c, top), theta_jets((ThetaKind.THETA,), c, tau, top)[0]
    s_part = _quotient(sin, theta, prime / cmath.pi)
    if j == 1 and _integral(c + 0.5):
        ratio = _quotient(_over_x("theta", tau, top), _over_x("sin", tau, top), scale)
    elif j == 1:
        ratio = _quotient(theta_jets((kind,), c, tau, top)[0], _trig_series("cos", c, top), scale)
    else:
        ratio = [scale * a for a in theta_jets((kind,), c, tau, top)[0]]
    return (_series_product(s_part, ratio),)


def _check_poles(comp, factors, t, tau):
    """Raise SingularFactorError at the first pole of the even factors among
    ``factors`` at (t, tau), in document order: with Phi0, a zero of theta
    at each normal piece; without it, a zero of the sine, and for a tangent
    ladder a zero of theta off the real integers."""
    phi0 = (TwistFactor.PHI0, 1) in factors
    tangent = any(ROLES[f][0] == "tangent" for f, _ in factors)
    for x, m in comp.normal:
        if phi0:
            _check_theta_pole(m * t, tau, comp.name, x, m, t)
            continue
        centre = complex(m * t)
        if abs(centre - round(centre.real)) < 1e-12:
            raise SingularFactorError("sin kernel vanishes at %s + %d t" % (x, m), t=t,
                                      component=comp.name, factor="sin(pi(%s + %d t))" % (x, m))
        if tangent and not _integral(centre):
            _check_theta_pole(m * t, tau, comp.name, x, m, t)


def _even_kernel(ctx, factors, t, tau, table=None):
    """The even kernel C sum_slot prod_symbol S_slot,symbol(x) of one
    component for the even factors among ``factors`` at (t, tau), as a dict
    over the plan's monomials (module docstring); the odd factors are
    skipped, and a fiber factor of a component without fibers has no fiber
    to contribute at.  Each factor's series at a pair or fiber is read from
    or built into ``table`` (None: a new dict) under (tag, signed centre,
    signed tau value, top > 0).  The caller checks the poles first
    (:func:`_check_poles`); a non-finite value raises CapacityError."""
    comp, plan, tau_key = ctx.comp, ctx.even_plan(), _signed(tau.value)
    table = {} if table is None else table
    phi0 = (TwistFactor.PHI0, 1) in factors
    # the factors other than Phi0: Theta_j on the pairs, Q_jV and DeltaV on the fibers
    others = [(ROLES[f], e) for f, e in factors
              if f is not TwistFactor.PHI0 and ROLES[f][0] != "odd"]

    def series(tag, centre, top):
        key = (tag, None if centre is None else _signed(centre), tau_key, top > 0)
        value = table.get(key)
        if value is None or len(value[0]) <= top:
            value = table[key] = _symbol_series(tag, centre, tau, top, ctx.zero_order)
        return value if len(value[0]) == top + 1 else tuple([s[:top + 1] for s in value])

    # per symbol, the product of its series, one list per slot
    per_symbol = []
    for top, pairs, fibers in plan.symbols:
        slots = None
        for m in pairs:
            jets = series("phi0" if phi0 else "bare", None if m is None else m * t, top)
            slots = jets if slots is None else tuple(map(_series_product, slots, jets))
        common = None
        for (family, j), exponent in others:
            for n in [m or 0 for m in pairs] if family == "tangent" else fibers:
                s = series((family, j), n * t, top)[0]
                for _ in range(exponent):
                    common = s if common is None else _series_product(common, s)
        if common is not None:
            slots = (common,) if slots is None else tuple([_series_product(s, common)
                                                           for s in slots])
        per_symbol.append(slots or ([1.0] + [0.0] * top,))
    by_kind = [[s[k % len(s)] for s in per_symbol] for k in range(len(EVEN_KINDS) if phi0 else 1)]
    const = plan.const if phi0 else 1.0
    terms = {}
    for mono, exps in plan.monomials:
        value = 0j
        for series_ in by_kind:
            term = const
            for coeffs, e in zip(series_, exps):
                term *= coeffs[e]
            value += term
        terms[mono] = value
    if not all(map(cmath.isfinite, terms.values())):
        raise CapacityError("the even kernel of component %r at t = %s, tau = %s is not "
                            "finite; |Im t| is too large" % (comp.name, complex(t), tau.value))
    return terms


# the table of the current integrand_memo scope, or None outside one
_INTEGRANDS = contextvars.ContextVar("integrands", default=None)


@contextlib.contextmanager
def integrand_memo():
    """Scope in which :func:`assemble_integrand` builds each integrand and
    each factor's series at a pair or fiber once (module docstring).  Yields
    the scope's one dict, which holds both: an integrand under (ctx, signed
    t, signed tau value, twist), a series under (tag, signed centre, signed
    tau value, top > 0).  Its keys hold t, so it lives here and not on the
    TauPoint stage.  A nested scope starts empty and the outer one resumes
    after it."""
    token = _INTEGRANDS.set({})
    try:
        yield _INTEGRANDS.get()
    finally:
        _INTEGRANDS.reset(token)


def _signed(z):
    # == does not tell 0.0 from -0.0, and a float t from a complex one
    return type(z), z, math.copysign(1.0, z.real), math.copysign(1.0, z.imag)


def assemble_integrand(ctx, twist, t, tau):
    """Full integrand of one ComponentContext at numeric (t, tau), as a dict
    of terms over the context's monomial index: the even kernel K times the
    odd factors (:func:`odd_ch_Q`) over the context's odd map, the poles
    checked first.  Each odd factor is linear in the trace generators T_w,
    and a kept monomial holds at most one, so one odd factor to the first
    power gives K(m) c_w at m T_w within the cap; any other odd part is 0,
    returned before any series is built.  Inside :func:`integrand_memo`
    each one is built once, and a build that raises leaves nothing behind;
    outside it nothing is kept."""
    tau = TauPoint.coerce(tau)
    memo = _INTEGRANDS.get()
    key = (ctx, _signed(t), _signed(tau.value), twist)
    if memo is not None and key in memo:
        return memo[key]
    factors, cap = twist.expanded(), ctx.comp.cap
    _check_poles(ctx.comp, factors, t, tau)
    odd = [(f, e) for f, e in factors if ROLES[f][0] == "odd"]
    out = {} if odd else _even_kernel(ctx, factors, t, tau, memo)
    if odd:
        if ctx.odd_map is None:
            raise PreconditionError("twist %s needs odd map data on the document" % odd[0][0])
        piece = odd_ch_Q(ROLES[odd[0][0]][1], ctx.odd_map, tau, cap=cap)
        linear = ([(ctx.names.index(n), generator_weight(n), c) for n, c in piece.items()]
                  if [e for _, e in odd] == [1] else ())
        for mono, value in (_even_kernel(ctx, factors, t, tau, memo) if linear else {}).items():
            for i, w, c in linear:
                if sum(mono) + w <= cap:
                    out[mono[:i] + (1,) + mono[i + 1:]] = value * c
    if memo is not None:
        memo[key] = out
    return out


def lefschetz_eval(data, twist, t, tau):
    """Sum over components of the paired top-degree integrand."""
    tau = TauPoint.coerce(tau)
    total = 0j
    for ctx in data.contexts:
        total += ctx.pair(assemble_integrand(ctx, twist, t, tau))
    return total


# --------------------------------------------------------------------------
# translation periodicity and the anomaly factor
# --------------------------------------------------------------------------


class AnomalyFactor(Record):
    """Multiplier picked up under t -> t + a*tau, assembled factor by factor.

    ``multiplier`` collects the scalar exponents; ``root_coefficients`` the
    coefficient of each fiber root symbol in the exponent (all zero exactly
    when the linear vanishing condition holds).  ``exponent_log`` records
    one entry per rotation-carrying theta factor.
    """

    __slots__ = _fields = ("multiplier", "root_coefficients", "exponent_log")

    def __init__(self, multiplier, root_coefficients, exponent_log):
        total = sum(v for _, v in exponent_log)
        if abs(multiplier - cmath.exp(total)) > 1e-12 * max(1.0, abs(multiplier)):
            raise PreconditionError("anomaly multiplier does not match its logged exponents")
        self._set(multiplier, root_coefficients, exponent_log)


def component_anomaly(ctx, twist, t, tau, a):
    """Anomaly data for one component; scalar part and polynomial exponent."""
    tau = TauPoint.coerce(tau)
    a = int(a)
    if a % 2 != 0:
        raise PreconditionError("translation anomaly is defined for even steps only")
    bad = [f for f, _ in twist.expanded() if ROLES[f][0] in ("delta", "tangent")]
    if bad:
        raise PreconditionError(
            "factors %s are not quasi-periodic in t; anomaly bookkeeping covers "
            "the Phi0-class and Q(V) ladders" % ", ".join(map(str, bad))
        )
    weight = twist.v_theta_weight()
    comp = ctx.comp
    log_entries = []
    scalar_exp = 0j
    root_coeffs = {}
    for z, n in comp.v_fibers:
        if n == 0:
            continue
        A = a * n
        entry = -TWO_PI_I * (A * n * t + A * A * tau.value / 2.0) * weight
        scalar_exp += entry
        log_entries.append(("theta^%d(%s + %d t)" % (weight, z, n), entry))
        root_coeffs[z] = root_coeffs.get(z, 0j) + (-TWO_PI_I) * A * weight
    # drop coefficients that cancel between fibers sharing a symbol; a root
    # weighs 1, so a component of cap 0 truncates every one to zero
    cleaned = {z: c for z, c in root_coeffs.items() if c != 0 and comp.cap >= 1}
    try:
        multiplier = cmath.exp(scalar_exp)
    except OverflowError:
        raise CapacityError("anomaly multiplier exp(%s) of component %r at t = %s "
                            "overflows" % (scalar_exp, comp.name, complex(t))) from None
    return AnomalyFactor(multiplier, cleaned, tuple(log_entries))


def _times_exponential(ctx, terms, coefficients):
    """``terms`` times exp(sum_z c_z z) at each key :meth:`ComponentContext.pair`
    reads: the sum over the m of ``terms`` that divide the key by a monomial
    prod_z z^d_z in the symbols of ``coefficients`` of terms[m] prod_z c_z^d_z / d_z!."""
    powers = {ctx.names.index(z): c for z, c in coefficients.items()}
    out = dict.fromkeys(ctx._weights, 0j)
    for key in out:
        for mono, value in terms.items():
            d = [k - m for k, m in zip(key, mono)]
            if min(d) >= 0 and all(i in powers for i, e in enumerate(d) if e):
                out[key] += value * math.prod(powers[i] ** e / math.factorial(e)
                                              for i, e in enumerate(d) if e)
    return out


def _anomaly_applied_eval(data, twist, t, tau, a):
    """Sum over components of functional(anomaly * integrand(t)), the
    exponential of the fiber roots taken at each key (:func:`_times_exponential`).

    Returns the sum and the sum of component magnitudes; the latter is the
    honest error scale when components cancel (the anomaly modulus can dwarf
    the cancelled total).
    """
    total = 0j
    scale = 0.0
    for ctx in data.contexts:
        fac = component_anomaly(ctx, twist, t, tau, a)
        terms = assemble_integrand(ctx, twist, t, tau)
        if fac.root_coefficients:
            terms = _times_exponential(ctx, terms, fac.root_coefficients)
        value = ctx.pair(terms) * fac.multiplier
        total += value
        scale += abs(value)
    return total, scale


class TranslationCheck(Record):
    """L(t + a tau) against the anomaly-applied L(t): distance, error scale, values."""

    __slots__ = _fields = ("residual", "scale", "shifted", "expected")

    def __init__(self, residual, scale, shifted, expected):
        self._set(residual, scale, shifted, expected)

    @property
    def relative_residual(self):
        return self.residual / max(1.0, self.scale)


def translation_anomaly_check(data, twist, t, tau, a):
    """|L(t + a tau) - (anomaly applied to L)(t)| for even a, with its
    natural error scale.  Each component's anomaly comes from the one-step
    shift laws (:func:`component_anomaly`), so the law holds whether or not
    the vanishing conditions do; the anomaly is 1 exactly when they pass."""
    tau = TauPoint.coerce(tau)
    a = int(a)
    if a % 2 != 0:
        raise PreconditionError("the translation laws hold for even steps")
    shifted = lefschetz_eval(data, twist, t + a * tau.value, tau)
    expected, scale = _anomaly_applied_eval(data, twist, t, tau, a)
    return TranslationCheck(abs(shifted - expected), scale, shifted, expected)


def periodicity_residual(data, twist, t, tau, a):
    """|L(t + a) - L(t)|, the translation defect, unconditional for even a.
    The step by a tau is :func:`translation_anomaly_check`."""
    tau = TauPoint.coerce(tau)
    a = int(a)
    if a % 2 != 0:
        raise PreconditionError("the translation laws hold for even steps")
    return abs(lefschetz_eval(data, twist, t + a, tau)
               - lefschetz_eval(data, twist, t, tau))


# --------------------------------------------------------------------------
# anomaly vanishing conditions
# --------------------------------------------------------------------------


class ConditionReport(Record):
    """A condition's verdict, with (name, linear residual, quadratic residual) rows."""

    __slots__ = _fields = ("condition", "passed", "per_component")

    def __init__(self, condition, passed, per_component):
        self._set(condition, passed, per_component)


def anomaly_condition_check(data, condition):
    """Vanishing conditions behind the translation and modular laws.

    'p1V=0' and '3p1V=0' both test, per component, that sum(n z) vanishes
    identically as a polynomial and that sum(n^2) is zero as an integer
    (reported separately; neither is inferred from the other).  'c3E=0'
    reads the declared flag on the odd map data.
    """
    if condition == "c3E=0":
        if data.odd_map is None:
            raise PreconditionError("condition c3E=0 needs odd map data")
        return ConditionReport(condition, bool(data.odd_map.c3_vanishes), ())
    if condition not in ("p1V=0", "3p1V=0"):
        raise PreconditionError("unknown condition %r" % condition)
    rows = []
    for comp in data.components:
        linear = {}
        for z, n in comp.v_fibers:
            linear[z] = linear.get(z, 0.0) + n
        # a root weighs 1, so a component of cap 0 truncates the form to zero
        lin_res = max(map(abs, linear.values()), default=0.0) if comp.cap >= 1 else 0.0
        rows.append((comp.name, lin_res, sum(n * n for _, n in comp.v_fibers)))
    ok = all(lin == 0 and quad == 0 for _, lin, quad in rows)
    return ConditionReport(condition, ok, tuple(rows))


# --------------------------------------------------------------------------
# modular transformation checks
# --------------------------------------------------------------------------


def permuted_twist(twist, g, data):
    """Image of a twist under the S or T action, with the constant relating
    the transformed evaluation to the permuted one.

    T swaps the half-integer ladders (constant 1).  S swaps the first two
    ladders; each swapped fiber ladder of exponent e contributes 2^{+-e l}
    (l = fiber count) and each swapped odd ladder 2^{+-N/2}
    (:meth:`TwistSpec.image`).  Self-symmetric twists like the full product
    ladder come back unchanged with constant 1.  A constant that is not a
    finite nonzero double is a :class:`CapacityError`.
    """
    image, l_exp, n_exp = twist.image(g)
    l = 0
    if l_exp:
        fiber_counts = {len(ctx.comp.v_fibers) for ctx in data.contexts}
        if len(fiber_counts) > 1:
            moved = [str(f) for f in twist.factors if ROLES[f][0] in ("fiber", "psi")
                     and spinor_shift(ROLES[f][1], g)]
            raise PreconditionError(
                "components carry different fiber counts (%s); the %s constant "
                "2^(e l) of %s is not globally defined for this twist"
                % (", ".join("%r: %d" % (ctx.comp.name, len(ctx.comp.v_fibers))
                             for ctx in data.contexts), g, ", ".join(moved))
            )
        l = fiber_counts.pop()
    N = data.odd_map.N if data.odd_map is not None else 0
    exponent = l_exp * l + n_exp * (N // 2)
    try:
        constant = 2.0 ** exponent
    except OverflowError:
        constant = math.inf
    if not 0.0 < constant < math.inf:
        raise CapacityError("the %s constant 2^(%d) of %s is out of float range"
                            % (g, exponent, ", ".join(map(str, twist.factors))))
    return image, constant


class ModularCheck(Record):
    """The residual of S or T, or a skip with its reason, with the weight and
    constant.  Not a tuple: the CLI reads a tuple as (residual, detail)."""

    __slots__ = _fields = ("generator", "residual", "skipped", "reason", "weight", "constant")

    def __init__(self, generator, residual=None, skipped=False, reason="", weight=0,
                 constant=1.0):
        self._set(generator, residual, skipped, reason, weight, constant)


def modular_residual(data, twist, t, tau, g):
    """Defect of the modular weight identity for the S or T action.

    S compares L at (t/tau, -1/tau) with const * tau^{2k} * L(t, tau) for
    the permuted twist; T compares L at (t, tau+1) with the permuted twist
    at tau.  The S identity presumes the anomaly vanishing conditions of
    the document's parity; unmet preconditions, and an S constant that
    components with different fiber counts leave undefined, report as
    skipped, not as failures.
    """
    tau = TauPoint.coerce(tau)
    g = g.upper() if isinstance(g, str) else g
    if g not in ("S", "T"):
        raise PreconditionError("modular checks cover the generators S and T")
    if g == "S":
        cond = anomaly_condition_check(data, "p1V=0")
        if not cond.passed:
            return ModularCheck("S", skipped=True,
                                reason="anomaly vanishing conditions fail: %r"
                                % (cond.per_component,))
        if data.parity == "odd":
            c3 = anomaly_condition_check(data, "c3E=0")
            if not c3.passed:
                return ModularCheck("S", skipped=True,
                                    reason="the degree-3 odd class is not declared zero")
        if data.parity == "even":
            for ctx in data.contexts:
                weight = len(ctx.comp.normal) + ctx.comp.cap
                if weight != 2 * data.k:
                    warnings.warn(
                        "component %r carries tau-weight %d (normal entries plus "
                        "cap) against the declared 2k = %d; the S identity will "
                        "not balance" % (ctx.comp.name, weight, 2 * data.k),
                        WeightMismatchWarning,
                        stacklevel=2,
                    )
    try:
        perm, const = permuted_twist(twist, g, data)
    except PreconditionError as exc:
        return ModularCheck(g, skipped=True, reason="%s; at t = %s" % (exc, t))
    if g == "T":
        lhs = lefschetz_eval(data, twist, t, tau.shifted(tau.value + 1.0))
        rhs = lefschetz_eval(data, perm, t, tau)
        return ModularCheck("T", residual=abs(lhs - rhs), constant=1.0)
    t_new, tau_new = moebius_act(MoebiusMatrix(0, -1, 1, 0), t, tau)
    lhs = lefschetz_eval(data, twist, t_new, tau_new)
    weight_factor = tau.value ** (2 * data.k)
    rhs = const * weight_factor * lefschetz_eval(data, perm, t, tau)
    return ModularCheck("S", residual=abs(lhs - rhs), weight=2 * data.k,
                        constant=const)


# --------------------------------------------------------------------------
# rigidity sweep, pole scan, pole transport
# --------------------------------------------------------------------------


class LefschetzReport(Record):
    """Grid values plus residual records for one consolidated run."""

    __slots__ = _fields = ("grid", "mean", "max_deviation", "tolerance", "passed",
                           "singular_points")

    def __init__(self, grid=(), mean=0j, max_deviation=0.0, tolerance=TOL_COMPOSITE,
                 passed=True, singular_points=()):
        self._set(grid, mean, max_deviation, tolerance, passed, singular_points)

    def to_dict(self):
        return {
            "grid": [{"t": _c2s(t), "value": None if v is None else _c2s(v)}
                     for t, v in self.grid],
            "mean": _c2s(self.mean),
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "singular_points": [_c2s(p) for p in self.singular_points],
        }


def _c2s(z):
    z = complex(z)
    return [z.real, z.imag]


def rigidity_sweep(data, twist, tau, t_grid, tolerance=1e-6):
    """Evaluate over the grid and report the deviation from the mean.

    Rigidity is t-independence; singular grid points are recorded and
    excluded rather than failing the sweep, and PreconditionError names
    them when no point is left.
    """
    tau = TauPoint.coerce(tau)
    values = []
    grid = []
    singular = []
    for t in t_grid:
        try:
            v = lefschetz_eval(data, twist, t, tau)
        except SingularFactorError:
            singular.append(t)
            grid.append((t, None))
            continue
        values.append(v)
        grid.append((t, v))
    if not values:
        raise PreconditionError("every grid point is singular: t = %s"
                                % ", ".join(str(complex(t)) for t in singular))
    mean = complex(sum(values)) / len(values)
    dev = max(abs(v - mean) for v in values)
    return LefschetzReport(
        grid=tuple(grid), mean=mean, max_deviation=dev, tolerance=tolerance,
        passed=dev <= tolerance, singular_points=tuple(singular),
    )


class PoleHit(namedtuple("PoleHit", "t k l c d component symbol rotation lattice")):
    """One candidate pole of :func:`pole_scan`: the parameter t = (k/l)(c
    tau + d), the rotated normal factor theta(symbol + rotation t) of a
    component that vanishes there, and its lattice point."""

    __slots__ = ()


def pole_scan(data, twist, tau, c_range, d_range, l_max):
    """Candidate singular parameters t = (k/l)(c tau + d).

    Detection is exact, by integer arithmetic, never by magnitude
    thresholds: the argument m t of a rotated normal factor is
    (m k d / l) + (m k c / l) tau, which lands on the zero lattice of theta
    exactly when l divides m k c and m k d, and then at the lattice point
    (m k d / l, m k c / l); with g = gcd(k, l), when l/g divides m.  Each
    t, in lowest terms (k/g)(c tau + d)/(l/g), is scanned once.
    """
    tau = TauPoint.coerce(tau)
    c_range = list(c_range)
    d_range = list(d_range)
    if len(c_range) * len(d_range) * int(l_max) > 20000:
        raise CapacityError("pole scan ranges exceed the desk-scale guard")
    normal = [(ctx.comp.name, sym, m) for ctx in data.contexts for sym, m in ctx.comp.normal]
    hits = []
    seen = set()
    for c in c_range:
        for d in d_range:
            if math.gcd(c, d) != 1:
                continue
            for l in range(1, int(l_max) + 1):
                for k in range(0, l + 1):
                    g = math.gcd(k, l)
                    kc, kd, lg = k // g * c, k // g * d, l // g
                    if (kc, kd, lg) in seen:
                        continue
                    seen.add((kc, kd, lg))
                    t0 = (k / l) * (c * tau.value + d)
                    named = set()
                    for name, sym, m in normal:
                        if m % lg or (name, sym) in named:
                            continue
                        named.add((name, sym))
                        hits.append(PoleHit(t=t0, k=k, l=l, c=c, d=d, component=name,
                                            symbol=sym, rotation=m,
                                            lattice=(m // lg * kd, m // lg * kc)))
    return hits
