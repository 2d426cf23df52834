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

Every Phi0-class twist (Phi0, Phi, Psi1-3) starts from the Phi0 kernel of
a component, Liu's all-theta integrand.  Each pair p (a tangent root y, or
a rotated normal piece x + m t) depends on one generator x_p, so the kernel
separates:

    C prod_p theta'(0)/theta(v_p) sum_k prod_p theta_k(v_p)/theta_k(0)
        = C sum_k prod_p g_k,p(x_p),
    g_k,p = theta'(0) theta_k(v_p) / (theta(v_p) theta_k(0)),

with k over the even kinds, C = 2^(pairs) pi^(-normal pieces), and
theta(y)/y in place of theta(y) for a tangent root.  :func:`_phi0_kernel`
forms each g_k,p as a univariate Taylor series to the top power the ring
keeps of x_p, by plain scalar series arithmetic (one inverse, one
truncated product), from one Fourier pass per lattice of kinds
(:func:`ellrig.theta.theta_jets`).  Pairs on one symbol are multiplied as
series first; then one pass per kind over the ring's monomials in the pair
symbols multiplies the series' coefficients.  The kernel needs no ring
product or inverse; the tau-only series of a tangent root are staged on the
TauPoint per top power.

Several of those laws evaluate L again at one base point (t, tau): the
translation periodicity, the anomaly law, the right-hand sides of the T and
S checks and the first point of a sweep.  Inside :func:`integrand_memo`,
the scope :func:`ellrig.cli.main` enters once around each command,
:func:`assemble_integrand` builds each component integrand once and hands
the same polynomial to every later call with the same component context,
twist, t, tau value and odd map.  In the same scope a second table holds
the Phi0 kernels, keyed by component context, t and tau value alone: the
kernel does not depend on the twist, so Phi, Psi1-3 and the permuted twists
of the S and T checks at one (component, t, tau) share one.  Keys of both
tables tell signed zeros apart, as :meth:`TauPoint.shifted` does; an error
is not kept, so a pole raises on every call; the polynomials are shared and
never mutated.  The tables are scoped to the command rather than staged on
the TauPoint because their keys hold t: a stage must not grow with the
number of t a sweep visits, and the tables end with the command.  Outside
the scope every call builds afresh and keeps nothing.
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
    ch_theta_twist,
    generator_weight,
    odd_ch_Q,
    odd_trace_generators,
    spinor_shift,
    FormalBundle,
)
from .errors import (
    CapacityError,
    EllrigError,
    IgnoredDataWarning,
    InversionError,
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
    _trig_jet,
    moebius_act,
    sinc_jet,
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
        # the bundles the twist characters read
        self.fiber_bundle = FormalBundle(tuple(s for s, _ in comp.v_fibers),
                                         tuple(n for _, n in comp.v_fibers))
        self.tangent_bundle = FormalBundle(
            tuple(comp.tangent_roots) + tuple(s for s, _ in comp.normal),
            (0,) * len(comp.tangent_roots) + tuple(m for _, m in comp.normal),
        )
        self._plan = None

    def phi0_plan(self):
        """The :class:`_Phi0Plan` of this component over ``gens``, made on
        first use."""
        if self._plan is None:
            self._plan = _Phi0Plan(self.comp, self.gens)
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


class _Phi0Plan:
    """What the Phi0 kernel of one component needs of its ring.

    ``monomials`` holds each monomial the ring keeps in the pair symbols
    alone, with its exponents of those symbols (in order of first
    appearance), sorted by the exponents; in a pairing ring this is a
    subsequence of the cap ring's list, so the kernel's terms keep the order
    the cap ring gives them.  ``symbols`` holds, per pair symbol, the top
    power the ring keeps of it (the largest exponent in ``monomials``) and
    the rotations of its pairs: None for a tangent root, m for a normal
    piece x + m t, tangent roots first.  ``const`` is C.
    """

    def __init__(self, comp, gens):
        cap = comp.cap
        rotations = {}
        for y in comp.tangent_roots:
            rotations.setdefault(y, []).append(None)
        for x, m in comp.normal:
            rotations.setdefault(x, []).append(m)
        positions = [gens.index(name) for name in rotations]

        def monomial(exps):
            mono = [0] * len(gens)
            for i, e in zip(positions, exps):
                mono[i] = e
            return tuple(mono)

        if gens.kept is None:
            # pair symbols are even and of weight 1
            candidates = map(monomial, itertools.product(range(cap + 1), repeat=len(positions)))
        else:
            candidates = gens.kept
        self.monomials = tuple(sorted(
            ((m, tuple(m[i] for i in positions)) for m in candidates
             if gens.keeps(m, cap) and m == monomial(m[i] for i in positions)),
            key=lambda entry: entry[1]))
        tops = [max((exps[i] for _, exps in self.monomials), default=0)
                for i in range(len(positions))]
        self.symbols = tuple(zip(tops, map(tuple, rotations.values())))
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


def _pair_jets(kind_jets, denominator, tau):
    """The series of g_k = theta'(0) theta_k / (theta_k(0) denominator) for
    the three even kinds, from their jets and the denominator's."""
    ratios = tau.staged(("phi0_ratios",), lambda: tuple(
        theta_prime_zero(tau) / theta_eval(kind, 0.0, tau) for kind in EVEN_KINDS))
    inverse = _series_inverse(denominator)
    return tuple([r * x for x in _series_product(jet, inverse)]
                 for jet, r in zip(kind_jets, ratios))


def _tangent_jets(tau, top):
    """The pair series of a tangent root to ``top``, staged on tau: its
    denominator is the regularized theta(y)/y, the jet of theta at 0
    shifted down by one."""
    def build():
        theta, *even = theta_jets(THETA_KINDS, 0.0, tau, top + 1)
        return _pair_jets([jet[:top + 1] for jet in even], theta[1:], tau)
    return tau.staged(("phi0_tangent", top), build)


def _phi0_kernel(ctx, t, tau):
    """The Phi0 kernel C sum_k prod_p g_k,p(x_p) of one component at (t,
    tau) (module docstring), without a ring product."""
    comp, plan = ctx.comp, ctx.phi0_plan()
    for x, m in comp.normal:
        _check_theta_pole(m * t, tau, comp.name, x, m, t)
    # per symbol, the product of its pairs' series, one per even kind
    per_symbol = []
    for top, rotations in plan.symbols:
        series = None
        for m in rotations:
            if m is None:
                jets = _tangent_jets(tau, top)
            else:
                theta, *even = theta_jets(THETA_KINDS, m * t, tau, top)
                jets = _pair_jets(even, theta, tau)
            series = jets if series is None else tuple(map(_series_product, series, jets))
        per_symbol.append(series)
    by_kind = tuple(zip(*per_symbol)) if per_symbol else ((),) * len(EVEN_KINDS)
    const = plan.const
    terms = {}
    for mono, exps in plan.monomials:
        value = 0j
        for series in by_kind:
            term = const
            for coeffs, e in zip(series, exps):
                term *= coeffs[e]
            value += term
        terms[mono] = value
    return ChernPoly._trusted(ctx.gens, comp.cap, terms)


class _Memo(dict):
    """The integrands built in one :func:`integrand_memo` scope, by key, and
    in ``kernels`` its Phi0 kernels, by key."""

    def __init__(self):
        super().__init__()
        self.kernels = {}


# the _Memo of the current integrand_memo scope, or None outside one
_INTEGRANDS = contextvars.ContextVar("integrands", default=None)


@contextlib.contextmanager
def integrand_memo():
    """Scope in which :func:`assemble_integrand` builds each integrand, and
    each Phi0 kernel, once (module docstring).  Yields the integrand memo, a
    dict from keys to polynomials whose ``kernels`` holds the kernels; a
    nested scope starts empty and the outer one resumes after it."""
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


def _shared_phi0_kernel(ctx, t, tau):
    """:func:`_phi0_kernel`, built once per (component, t, tau) inside
    :func:`integrand_memo` and shared by every twist."""
    memo = _INTEGRANDS.get()
    return _memoised(None if memo is None else memo.kernels, ctx, t, tau,
                     lambda: _phi0_kernel(ctx, t, tau))


def _build_integrand(ctx, twist, t, tau, odd_map):
    """Build the integrand of :func:`assemble_integrand`.

    With a Phi0-class factor present the tangent and normal kernels fuse
    with the elliptic-summand characters into the all-theta form

        C prod_p theta'(0)/theta(v_p) sum_k prod_p theta_k(v_p)/theta_k(0)
            = C sum_k prod_p g_k,p(x_p),

    over the pairs p (tangent roots y, v = y, with theta(y)/y in place of
    theta(y); rotated normal pieces, v = x + m t) and the even kinds k,
    with C = 2^(pairs) pi^(-normal pieces) and g_k,p = theta'(0) theta_k(v_p)
    / (theta(v_p) theta_k(0)), one univariate series per pair and kind
    (:func:`_phi0_kernel`).  This twist-free kernel is built once per
    (component context, t, tau value) inside :func:`integrand_memo`, keyed
    with signed zeros told apart and never kept when it raises, and shared
    by every twist there; the fiber and odd factors of the remaining
    twists multiply it.  Without a Phi0-class factor the bare sinh-kernel
    recipe is used.
    """
    comp = ctx.comp
    gens, cap = ctx.gens, comp.cap
    factors = twist.expanded()

    if any(f is TwistFactor.PHI0 for f, _ in factors):
        out = _shared_phi0_kernel(ctx, t, tau)
    else:
        out = ChernPoly.one(gens, cap)
        for y in comp.tangent_roots:
            out = out * sinc_jet(ChernPoly.generator(gens, cap, y)).inverse()
        for x, m in comp.normal:
            centre = complex(m * t)
            if abs(centre - round(centre.real)) < 1e-12:
                raise SingularFactorError(
                    "sin kernel vanishes at %s" % ("%s + %d t" % (x, m)),
                    component=comp.name, factor="sin(pi(%s + %d t))" % (x, m), t=t,
                )
            out = out * _trig_jet("sin", centre, ChernPoly.generator(gens, cap, x)).inverse()

    for factor, exponent in factors:
        family, j = ROLES[factor]
        if factor is TwistFactor.PHI0:
            continue
        if family in ("fiber", "delta"):
            # fiber thetas and cosines sit in the numerator; their zeros are
            # not poles
            piece = ch_theta_twist(factor, ctx.fiber_bundle, t, tau, gens=gens,
                                   cap=cap, exponent=exponent)
        elif family == "odd":
            if odd_map is None:
                raise PreconditionError(
                    "twist %s needs odd map data on the document" % factor
                )
            piece = odd_ch_Q(j, odd_map, tau, cap=cap, gens=gens)
            piece = piece ** exponent
        else:
            try:
                piece = ch_theta_twist(factor, ctx.tangent_bundle, t, tau, gens=gens,
                                       cap=cap, exponent=exponent)
            except InversionError as exc:
                raise SingularFactorError(
                    "twist %s is singular on component %r: %s"
                    % (factor, comp.name, exc),
                    component=comp.name, factor=str(factor), t=t,
                ) from exc
        out = out * piece
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
    (m k d / l, m k c / l).
    """
    tau = TauPoint.coerce(tau)
    c_range = list(c_range)
    d_range = list(d_range)
    if len(c_range) * len(d_range) * int(l_max) > 20000:
        raise CapacityError("pole scan ranges exceed the desk-scale guard")
    hits = []
    seen = set()
    for c in c_range:
        for d in d_range:
            if math.gcd(c, d) != 1:
                continue
            for l in range(1, int(l_max) + 1):
                for k in range(0, l + 1):
                    t0 = (k / l) * (c * tau.value + d)
                    for ctx in data.contexts:
                        for sym, m in ctx.comp.normal:
                            if (m * k * c) % l or (m * k * d) % l:
                                continue
                            key = (round(t0.real, 9), round(t0.imag, 9),
                                   ctx.comp.name, sym)
                            if key in seen:
                                continue
                            seen.add(key)
                            hits.append(PoleHit(
                                t=t0, k=k, l=l, c=c, d=d,
                                component=ctx.comp.name, symbol=sym, rotation=m,
                                lattice=(m * k * d // l, m * k * c // l),
                            ))
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
