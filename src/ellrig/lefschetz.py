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
:func:`rigidity_sweep` over a t-grid, and :func:`pole_scan` with
:func:`pole_transport` for the pole bookkeeping.

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
the top power the ring keeps of its symbol, by scalar series arithmetic
from one Fourier pass per lattice of kinds (:func:`ellrig.theta.theta_jets`),
an exponent as a series power; it multiplies the series of one symbol and
makes one pass per slot over the ring's monomials.  The odd factors
(:func:`ellrig.characters.odd_ch_Q`) are the only ring products.

Several of those laws evaluate L again at one base point (t, tau).  Inside
:func:`integrand_memo`, the scope :func:`ellrig.cli.main` enters once around
each command, :func:`assemble_integrand` builds each component integrand
once per component context, twist, t, tau value and odd map.  A second
table holds the even kernels, keyed by component context, t, tau value and
the even factors that reach the component; a fiber factor of a component
without fibers is 1, so there Phi, Psi1-3 and the S and T images of a twist
share one kernel.  A third holds each factor's series at a pair or fiber,
keyed by factor, centre, tau value and whether the top power is above 0; it
keeps the longest series asked for, whose prefix is a shorter one, bit for
bit.  Keys tell signed zeros apart; an error is not kept, so a pole raises
on every call; values are shared and never mutated.  The tables hold t, so
they live in the command scope, not on the TauPoint stage.  Outside the
scope every call builds afresh and keeps nothing.
"""

from __future__ import annotations

import cmath
import contextlib
import contextvars
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .characters import (
    ROLES,
    OddMapData,
    TwistFactor,
    TwistSpec,
    generator_weight,
    odd_ch_Q,
    odd_trace_generators,
    spinor_shift,
)
from .errors import (
    CapacityError,
    EllrigError,
    IgnoredDataWarning,
    PreconditionError,
    SchemaError,
    SingularFactorError,
    WeightMismatchWarning,
)
from .polynomial import ChernPoly, Generators
from .theta import (
    THETA_KINDS,
    TWO_PI_I,
    MoebiusMatrix,
    TauPoint,
    ThetaKind,
    moebius_act,
    theta_eval,
    theta_jets,
    theta_prime_zero,
    theta_zero_location,
)

TOL_COMPOSITE = 1e-7
TOL_SINGLE = 1e-10
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


def format_monomial(gens, mono):
    bits = [
        n if e == 1 else "%s^%d" % (n, e)
        for n, e in zip(gens.names, mono)
        if e
    ]
    return " ".join(bits) if bits else "1"


@dataclass(frozen=True)
class FixedComponentData:
    """One fixed component: root symbols, rotations, and the intersection
    functional on monomials of total weighted degree exactly ``cap``."""

    name: str
    tangent_roots: tuple = ()
    normal: tuple = ()        # (symbol, rotation m != 0)
    v_fibers: tuple = ()      # (symbol, rotation n)
    v_real_roots: tuple = ()
    intersection: dict = field(default_factory=dict)
    cap: int = 0

    def __post_init__(self):
        object.__setattr__(self, "tangent_roots", tuple(self.tangent_roots))
        object.__setattr__(self, "normal",
                           tuple((str(s), int(m)) for s, m in self.normal))
        object.__setattr__(self, "v_fibers",
                           tuple((str(s), int(n)) for s, n in self.v_fibers))
        object.__setattr__(self, "v_real_roots", tuple(self.v_real_roots))
        for s, m in self.normal:
            if m == 0:
                raise SchemaError(
                    "component %r: normal piece %r has rotation 0; "
                    "normal directions of a fixed set are rotated" % (self.name, s)
                )
        if self.v_real_roots:
            warnings.warn(
                "component %r: real-subbundle roots %r are accepted but ignored "
                "by every evaluation" % (self.name, self.v_real_roots),
                IgnoredDataWarning,
                stacklevel=2,
            )
        object.__setattr__(self, "intersection", {
            str(k): _rational(v, "component %r: intersection[%s]" % (self.name, json.dumps(str(k))))
            for k, v in self.intersection.items()})

    def even_symbols(self):
        """Every root symbol once, in order of first appearance."""
        return tuple(dict.fromkeys((*self.tangent_roots, *(s for s, _ in self.normal),
                                    *(s for s, _ in self.v_fibers), *self.v_real_roots)))


class ComponentContext:
    """Resolved generator set and functional for one component.

    ``gens`` is the component's pairing ring (:meth:`Generators.pairing_ring`):
    the degree-``cap`` ring cut down to the divisors of the functional keys
    with a nonzero value, 1, and every generator within the cap.  The
    integrand is built there, so the engine computes only the monomials the
    functional can read, and :meth:`pair` gives the value the cap ring would,
    bit for bit.  The generators stay for two reasons: a theta jet at a
    generator keeps an order above 0, on which the Fourier term count
    depends, and :func:`anomaly_condition_check` reads its linear fiber
    polynomial from them.
    """

    def __init__(self, comp, odd_map=None):
        self.comp = comp
        names = comp.even_symbols()
        weights, odd_flags = (1,) * len(names), (False,) * len(names)
        if odd_map is not None:
            trace = odd_trace_generators(odd_map, comp.cap)
            names, weights, odd_flags = (names + trace.names, weights + trace.weights,
                                         odd_flags + trace.odd)
        declared = Generators(names, weights, odd_flags)
        self.functional = {}
        for key, value in comp.intersection.items():
            mono_map = parse_monomial(key)
            for name in mono_map:
                if name not in names:
                    raise SchemaError("unknown symbol %r in monomial %r" % (name, key.strip()))
            mono = tuple(mono_map.get(n, 0) for n in names)
            degree = declared.weight_of(mono)
            if degree != comp.cap:
                raise SchemaError(
                    "component %r: functional key %r has degree %d, cap is %d"
                    % (comp.name, key, degree, comp.cap)
                )
            if declared.odd_count(mono) > 1:
                raise SchemaError(
                    "component %r: functional key %r carries more than one odd "
                    "generator" % (comp.name, key)
                )
            self.functional[mono] = value
        # the nonzero values as the floats pair() multiplies by
        self._weights = {m: float(v) for m, v in self.functional.items() if v != 0}
        self.gens = declared.pairing_ring(comp.cap, self._weights)
        self._plan = None

    def even_plan(self):
        """The :class:`_EvenPlan` of this component over ``gens``, made on
        first use."""
        if self._plan is None:
            self._plan = _EvenPlan(self.comp, self.gens)
        return self._plan

    def pair(self, poly):
        """Apply the intersection functional.  Every functional key has degree
        ``cap``, so this sums the top-degree terms, in their order."""
        weights = self._weights
        total = 0j
        for mono, coeff in poly.terms.items():
            w = weights.get(mono)
            if w is not None:
                total += coeff * w
        return total


@dataclass(frozen=True)
class FixedPointData:
    """A full fixed-point document: components plus global parameters."""

    components: tuple
    k: int
    parity: str = "even"
    odd_map: OddMapData = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if self.parity not in ("even", "odd"):
            raise SchemaError("parity must be 'even' or 'odd'")
        if (self.parity == "odd") != (self.odd_map is not None):
            raise SchemaError("odd_map must be present exactly for odd parity")
        if self.k < 1:
            raise SchemaError("the dimension parameter k must be positive")
        seen = set()
        for comp in self.components:
            for s in comp.even_symbols():
                if s in seen:
                    raise SchemaError(
                        "symbol %r appears in more than one component; "
                        "symbols must be disjoint" % s
                    )
                seen.add(s)
        object.__setattr__(
            self, "_contexts",
            tuple(ComponentContext(c, self.odd_map) for c in self.components),
        )

    @property
    def contexts(self):
        return self._contexts


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


def _rational(value, where):
    """A rational field: an integer, a Fraction or a string such as "-1/5"."""
    _expect(value, (int, str, Fraction), "a rational (integer or \"p/q\" string)", where)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise SchemaError("%s must be a rational, got %r" % (where, value))


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


def _infer_cap(intersection, where):
    """The weighted degree shared by every functional key of a component."""
    degrees = set()
    for key in intersection:
        try:
            powers = parse_monomial(key)
        except SchemaError as exc:
            raise SchemaError("%s.intersection key %s: %s" % (where, json.dumps(key), exc))
        degrees.add(sum(generator_weight(name) * p for name, p in powers.items()))
    if len(degrees) > 1:
        raise SchemaError("%s: functional keys mix degrees %s; give degree_cap"
                          % (where, sorted(degrees)))
    return degrees.pop() if degrees else 0


def _load_component(c, idx):
    where = "components[%d]" % idx
    _expect(c, dict, "an object", where)
    _known_keys(c, ("name", "tangent_roots", "normal", "v_fibers", "v_real_roots",
                    "intersection", "degree_cap"), where)
    intersection = {}
    for key, value in _expect(c.get("intersection", {}), dict, "an object",
                              where + ".intersection").items():
        intersection[key] = _rational(value, "%s.intersection[%s]" % (where, json.dumps(key)))
    cap = c.get("degree_cap")
    return FixedComponentData(
        name=_expect(c.get("name", "component-%d" % idx), str, "a string", where + ".name"),
        tangent_roots=_symbols(c.get("tangent_roots", []), where + ".tangent_roots"),
        normal=_rotations(c.get("normal", []), where + ".normal"),
        v_fibers=_rotations(c.get("v_fibers", []), where + ".v_fibers"),
        v_real_roots=_symbols(c.get("v_real_roots", []), where + ".v_real_roots"),
        intersection=intersection,
        cap=(_infer_cap(intersection, where) if cap is None
             else _integer(cap, where + ".degree_cap")),
    )


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
    """What the even kernel of one component needs of its ring.

    ``monomials`` holds each monomial the ring keeps in the root symbols
    alone, with its exponents of those symbols (pair symbols in order of
    first appearance, tangent roots first, then the other fiber symbols),
    sorted by the exponents; in a pairing ring this is a subsequence of the
    cap ring's list, so the kernel's terms keep the order the cap ring gives
    them.  ``symbols`` holds, per symbol, the top power the ring keeps of it
    (the largest exponent in ``monomials``), the rotations of its pairs
    (None for a tangent root, m for a normal piece x + m t) and those of its
    fibers (n for z + n t); ``tops`` maps each symbol to its top power.
    ``const`` is C of the Phi0 kernel.
    """

    def __init__(self, comp, gens):
        cap = comp.cap
        pairs, fibers = {}, {}
        for y in comp.tangent_roots:
            pairs.setdefault(y, []).append(None)
        for x, m in comp.normal:
            pairs.setdefault(x, []).append(m)
        for z, n in comp.v_fibers:
            fibers.setdefault(z, []).append(n)
        names = tuple(dict.fromkeys((*pairs, *fibers)))
        positions = [gens.index(name) for name in names]

        def monomial(exps):
            mono = [0] * len(gens)
            for i, e in zip(positions, exps):
                mono[i] = e
            return tuple(mono)

        if gens.kept is None:
            # root symbols are even and of weight 1
            candidates = map(monomial, itertools.product(range(cap + 1), repeat=len(positions)))
        else:
            candidates = gens.kept
        self.monomials = tuple(sorted(
            ((m, tuple(m[i] for i in positions)) for m in candidates
             if gens.keeps(m, cap) and m == monomial(m[i] for i in positions)),
            key=lambda entry: entry[1]))
        tops = [max((exps[i] for _, exps in self.monomials), default=0)
                for i in range(len(positions))]
        self.symbols = tuple((top, pairs.get(name, ()), fibers.get(name, ()))
                             for name, top in zip(names, tops))
        self.tops = dict(zip(names, tops))
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


def _pair_jets(kind_jets, denominator, tau):
    """The series of g_k = theta'(0) theta_k / (theta_k(0) denominator) for
    the three even kinds, from their jets and the denominator's."""
    ratios = tau.staged(("phi0_ratios",), lambda: tuple(
        theta_prime_zero(tau) / theta_eval(kind, 0.0, tau) for kind in EVEN_KINDS))
    inverse = _series_inverse(denominator)
    return tuple([r * x for x in _series_product(jet, inverse)]
                 for jet, r in zip(kind_jets, ratios))


def _symbol_series(tag, centre, tau, top):
    """One even factor's series at one pair or fiber to x^top, one list per
    slot.  ``tag`` names the factor: "phi0" (a slot per even kind) or "bare"
    at a pair, with centre None for a tangent root; ("fiber", j), ("delta",
    0) or ("tangent", j) at w = centre + x (module docstring).  At a real
    integer w, sin(pi w) and theta(w) vanish linearly and change sign alike
    under w -> w + 1, so their quotient is the one at 0, each divided by x;
    theta1(w)/cos(pi w) = theta(w + 1/2)/sin(pi(w + 1/2)) takes the same
    rule at a real half-integer w."""
    if tag == "phi0":
        if centre is None:
            theta, *even = theta_jets(THETA_KINDS, 0.0, tau, top + 1)
            return _pair_jets([jet[:top + 1] for jet in even], theta[1:], tau)
        theta, *even = theta_jets(THETA_KINDS, centre, tau, top)
        return _pair_jets(even, theta, tau)
    if tag == "bare":
        # 1/sinc(y) = pi y/sin(pi y), or 1/sin(pi(x + m t))
        return (_series_inverse([a / math.pi for a in _over_x("sin", tau, top)]
                                if centre is None else _trig_series("sin", centre, top)),)
    family, j = tag
    if family == "delta":
        return ([2 * a for a in _trig_series("cos", centre, top)],)
    kind, c = THETA_KINDS[j], complex(centre)
    scale = 1 / theta_eval(kind, 0.0, tau)
    if family == "fiber":
        # the spinor doubling restores the 2 cos(pi v) of DeltaV in theta1
        return ([(2 * scale if j == 1 else scale) * a for a in theta_jets((kind,), c, tau, top)[0]],)
    if _integral(c):
        sin, theta = _over_x("sin", tau, top), _over_x("theta", tau, top)
    else:
        sin, theta = _trig_series("sin", c, top), theta_jets((ThetaKind.THETA,), c, tau, top)[0]
    s_part = _quotient(sin, theta, theta_prime_zero(tau) / cmath.pi)
    if j == 1 and _integral(c + 0.5):
        ratio = _quotient(_over_x("theta", tau, top), _over_x("sin", tau, top), scale)
    elif j == 1:
        ratio = _quotient(theta_jets((kind,), c, tau, top)[0], _trig_series("cos", c, top), scale)
    else:
        ratio = [scale * a for a in theta_jets((kind,), c, tau, top)[0]]
    return (_series_product(s_part, ratio),)


def _even_factors(ctx, factors):
    """The even factors of an expanded twist that reach a component: a fiber
    factor of a component without fibers is 1 and does not."""
    return tuple([(f, e) for f, e in factors if ROLES[f][0] != "odd"
                  and (ctx.comp.v_fibers or ROLES[f][0] not in ("fiber", "delta"))])


def _even_kernel(ctx, even, t, tau, table=None):
    """The even kernel C sum_slot prod_symbol S_slot,symbol(x) of one
    component for the even factors ``even`` (:func:`_even_factors`) at (t,
    tau), without a ring product (module docstring).  Each factor's series
    at a pair or fiber is read from or built into ``table`` (None: a new
    dict) under (tag, signed centre, signed tau value, top > 0).  The poles
    are checked first, in document order: with Phi0, each normal pair whose
    series is not in the table; without it, a zero of the sine, and for a
    tangent ladder a zero of theta off the real integers."""
    comp, plan, tau_key = ctx.comp, ctx.even_plan(), _signed(tau.value)
    table = {} if table is None else table
    phi0 = (TwistFactor.PHI0, 1) in even
    # the factors other than Phi0: Theta_j on the pairs, Q_jV and DeltaV on the fibers
    others = [(ROLES[f], e) for f, e in even if f is not TwistFactor.PHI0]
    for x, m in comp.normal:
        if phi0:
            if ("phi0", _signed(m * t), tau_key, plan.tops[x] > 0) not in table:
                _check_theta_pole(m * t, tau, comp.name, x, m, t)
            continue
        centre = complex(m * t)
        if abs(centre - round(centre.real)) < 1e-12:
            raise SingularFactorError(
                "sin kernel vanishes at %s" % ("%s + %d t" % (x, m)),
                component=comp.name, factor="sin(pi(%s + %d t))" % (x, m), t=t,
            )
        if not _integral(centre) and any(role[0] == "tangent" for role, _ in others):
            _check_theta_pole(m * t, tau, comp.name, x, m, t)

    def series(tag, centre, top):
        key = (tag, None if centre is None else _signed(centre), tau_key, top > 0)
        value = table.get(key)
        if value is None or len(value[0]) <= top:
            value = table[key] = _symbol_series(tag, centre, tau, top)
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
    return ChernPoly._trusted(ctx.gens, comp.cap, terms)


class _Memo(dict):
    """The integrands built in one :func:`integrand_memo` scope, by key; in
    ``kernels`` its even kernels and in ``series`` its factors' series at
    each pair and fiber, shared by every component and twist (module
    docstring).  Both hold t, so they live here, not on the TauPoint."""

    def __init__(self):
        super().__init__()
        self.kernels = {}
        self.series = {}


# the _Memo of the current integrand_memo scope, or None outside one
_INTEGRANDS = contextvars.ContextVar("integrands", default=None)


@contextlib.contextmanager
def integrand_memo():
    """Scope in which :func:`assemble_integrand` builds each integrand, each
    even kernel and each factor's series at a pair or fiber once (module
    docstring).  Yields the :class:`_Memo`; its series table holds t, so it
    lives here and not on the TauPoint stage.  A nested scope starts empty
    and the outer one resumes after it."""
    token = _INTEGRANDS.set(_Memo())
    try:
        yield _INTEGRANDS.get()
    finally:
        _INTEGRANDS.reset(token)


def _memoised(table, ctx, t, tau, build, *rest):
    """build(), kept in ``table`` under (ctx, t, tau value, *rest) with t and
    tau told apart by sign of zero and type; a build that raises leaves
    nothing behind.  Outside a scope ``table`` is None and nothing is kept."""
    if table is None:
        return build()
    key = (ctx, _signed(t), _signed(tau.value)) + rest
    value = table.get(key)
    if value is None:
        value = table[key] = build()
    return value


def _signed(z):
    # == does not tell 0.0 from -0.0, and a float t from a complex one
    return type(z), z, math.copysign(1.0, z.real), math.copysign(1.0, z.imag)


def assemble_integrand(ctx, twist, t, tau, odd_map=None):
    """Full integrand of one ComponentContext at numeric (t, tau) as a
    polynomial; inside :func:`integrand_memo` each one is built once."""
    tau = TauPoint.coerce(tau)
    return _memoised(_INTEGRANDS.get(), ctx, t, tau,
                     lambda: _build_integrand(ctx, twist, t, tau, odd_map), twist, odd_map)


def _build_integrand(ctx, twist, t, tau, odd_map):
    """Build the integrand of :func:`assemble_integrand`: the even kernel of
    the twist's even factors, shared inside :func:`integrand_memo` by every
    twist with them (module docstring), times each odd factor."""
    factors = twist.expanded()
    even = _even_factors(ctx, factors)
    memo = _INTEGRANDS.get()
    kernels, series = (None, None) if memo is None else (memo.kernels, memo.series)
    out = _memoised(kernels, ctx, t, tau, lambda: _even_kernel(ctx, even, t, tau, series), even)
    for factor, exponent in factors:
        family, j = ROLES[factor]
        if family == "odd":
            if odd_map is None:
                raise PreconditionError("twist %s needs odd map data on the document" % factor)
            piece = odd_ch_Q(j, odd_map, tau, cap=ctx.comp.cap, gens=ctx.gens)
            out = out * piece ** exponent
    return out


def lefschetz_eval(data, twist, t, tau):
    """Sum over components of the paired top-degree integrand."""
    tau = TauPoint.coerce(tau)
    total = 0j
    for ctx in data.contexts:
        poly = assemble_integrand(ctx, twist, t, tau, data.odd_map)
        total += ctx.pair(poly)
    return total


# --------------------------------------------------------------------------
# translation periodicity and the anomaly factor
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AnomalyFactor:
    """Multiplier picked up under t -> t + a*tau, assembled factor by factor.

    ``multiplier`` collects the scalar exponents; ``root_coefficients`` the
    coefficient of each fiber root symbol in the exponent (all zero exactly
    when the linear vanishing condition holds).  ``exponent_log`` records
    one entry per rotation-carrying theta factor.
    """

    multiplier: complex
    root_coefficients: dict
    exponent_log: tuple

    def __post_init__(self):
        total = sum(v for _, v in self.exponent_log)
        if abs(self.multiplier - cmath.exp(total)) > 1e-12 * max(1.0, abs(self.multiplier)):
            raise PreconditionError("anomaly multiplier does not match its logged exponents")


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
    # drop coefficients that cancel between fibers sharing a symbol,
    # and roots truncated to zero by the component cap
    gens = ctx.gens
    cleaned = {}
    for name, coeff in root_coeffs.items():
        if coeff == 0:
            continue
        if gens.weights[gens.index(name)] > comp.cap:
            continue
        cleaned[name] = coeff
    try:
        multiplier = cmath.exp(scalar_exp)
    except OverflowError:
        raise CapacityError("anomaly multiplier exp(%s) of component %r at t = %s "
                            "overflows" % (scalar_exp, comp.name, complex(t))) from None
    return AnomalyFactor(multiplier, cleaned, tuple(log_entries))


def _anomaly_applied_eval(data, twist, t, tau, a):
    """Sum over components of functional(anomaly * integrand(t)).

    Returns the sum and the sum of component magnitudes; the latter is the
    honest error scale when components cancel (the anomaly modulus can dwarf
    the cancelled total).
    """
    total = 0j
    scale = 0.0
    for ctx in data.contexts:
        fac = component_anomaly(ctx, twist, t, tau, a)
        poly = assemble_integrand(ctx, twist, t, tau, data.odd_map)
        if fac.root_coefficients:
            gens, cap = ctx.gens, ctx.comp.cap
            exponent = ChernPoly.zero(gens, cap)
            for name, coeff in fac.root_coefficients.items():
                exponent = exponent + ChernPoly.generator(gens, cap, name, coeff)
            poly = poly * exponent.exp()
        value = ctx.pair(poly) * fac.multiplier
        total += value
        scale += abs(value)
    return total, scale


@dataclass(frozen=True)
class TranslationCheck:
    residual: float
    scale: float
    shifted: complex
    expected: complex

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


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    passed: bool
    per_component: tuple  # (name, linear residual, quadratic residual)


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
    ok = True
    for ctx in data.contexts:
        comp = ctx.comp
        gens, cap = ctx.gens, comp.cap
        linear = ChernPoly.zero(gens, cap)
        quad = 0
        for z, n in comp.v_fibers:
            linear = linear + ChernPoly.generator(gens, cap, z, float(n))
            quad += n * n
        lin_res = linear.max_abs_coeff()
        rows.append((comp.name, lin_res, abs(quad)))
        if lin_res != 0 or quad != 0:
            ok = False
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
    ladder come back unchanged with constant 1.
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
    return image, 2.0 ** (l_exp * l + n_exp * (N // 2))


@dataclass(frozen=True)
class ModularCheck:
    generator: str
    residual: float = None
    skipped: bool = False
    reason: str = ""
    weight: int = 0
    constant: complex = 1.0


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


@dataclass
class LefschetzReport:
    """Grid values plus residual records for one consolidated run."""

    grid: tuple = ()
    mean: complex = 0j
    max_deviation: float = 0.0
    tolerance: float = TOL_COMPOSITE
    passed: bool = True
    singular_points: tuple = ()

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


@dataclass(frozen=True)
class PoleHit:
    t: complex
    k: int
    l: int
    c: int
    d: int
    component: str
    symbol: str
    rotation: int
    lattice: tuple


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


def _extended_gcd(x, y):
    if y == 0:
        return x, 1, 0
    g, u, v = _extended_gcd(y, x % y)
    return g, v, u - (x // y) * v


def pole_transport(hit, tau, data):
    """Relocate a singular parameter with the inverse-framing matrix.

    For a pole on the line t = (k/l)(c tau + d) the matrix (d -b; -c a)
    moves the singular parameter of the pulled-back function to the real
    value k/l.  The relocation is confirmed by the factor-vanishing check
    at the transported point, not by magnitudes.
    """
    tau = TauPoint.coerce(tau)
    k, l, c, d = hit.k, hit.l, hit.c, hit.d
    g, u, w = _extended_gcd(d, c)
    if g < 0:
        g, u, w = -g, -u, -w
    if g != 1:
        raise PreconditionError("(c, d) must be coprime")
    # u*d + w*c = 1, so a = u, b = -w solve a*d - b*c = 1
    a, b = u, -w
    if a * d - b * c != 1:
        raise PreconditionError("inverse framing matrix for (c, d) = (%d, %d) "
                                "has determinant != 1" % (c, d))
    g0 = MoebiusMatrix(d, -b, -c, a)
    t_real = Fraction(k, l)
    t_new, tau_new = moebius_act(g0, float(t_real), tau)
    verified = False
    location = None
    factor = None
    for ctx in data.contexts:
        for sym, m in ctx.comp.normal:
            loc = theta_zero_location(ThetaKind.THETA, m * t_new, tau_new)
            if loc is not None:
                verified = True
                location = loc
                factor = (ctx.comp.name, sym, m)
                break
        if verified:
            break
    return {
        "matrix": g0,
        "transported_parameter": t_real,
        "new_tau": tau_new.value,
        "pulled_back_argument": t_new,
        "verified": verified,
        "lattice": location,
        "factor": factor,
    }
