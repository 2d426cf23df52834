"""Equivariant Lefschetz functions over fixed-point data.

A document lists fixed components; each carries tangent root symbols (one
per +-pair), rotated normal pieces, rotated fiber pieces of the auxiliary
bundle, and a linear functional on top-degree monomials standing in for
integration over the component.  The engine assembles the all-theta
integrand of the twisted spinor ladders at numeric (t, tau), extracts the
top-degree part, pairs it against the functional, and sums over components.

On top of plain evaluation it verifies the structural laws: translation
periodicity, the translation anomaly and its vanishing conditions, the
S/T modular weights with the ladder permutations, rigidity sweeps over a
t-grid, and the pole and pole-transport bookkeeping.
"""

from __future__ import annotations

import cmath
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
    ch_delta,
    ch_theta_twist,
    generator_weight,
    odd_ch_Q,
    odd_trace_generators,
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
    TWO_PI_I,
    MoebiusMatrix,
    TauPoint,
    ThetaKind,
    _trig_jet,
    moebius_act,
    sinc_jet,
    theta_eval,
    theta_eval_regularized,
    theta_prime_zero,
    theta_zero_location,
)

TOL_COMPOSITE = 1e-7
TOL_SINGLE = 1e-10


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
    """Resolved generator set and functional for one component."""

    def __init__(self, comp, odd_map=None):
        self.comp = comp
        names = comp.even_symbols()
        weights, odd_flags = (1,) * len(names), (False,) * len(names)
        if odd_map is not None:
            trace = odd_trace_generators(odd_map, comp.cap)
            names, weights, odd_flags = (names + trace.names, weights + trace.weights,
                                         odd_flags + trace.odd)
        self.gens = Generators(names, weights, odd_flags)
        self.functional = {}
        for key, value in comp.intersection.items():
            mono_map = parse_monomial(key)
            for name in mono_map:
                if name not in names:
                    raise SchemaError("unknown symbol %r in monomial %r" % (name, key.strip()))
            mono = tuple(mono_map.get(n, 0) for n in names)
            degree = self.gens.weight_of(mono)
            if degree != comp.cap:
                raise SchemaError(
                    "component %r: functional key %r has degree %d, cap is %d"
                    % (comp.name, key, degree, comp.cap)
                )
            if self.gens.odd_count(mono) > 1:
                raise SchemaError(
                    "component %r: functional key %r carries more than one odd "
                    "generator" % (comp.name, key)
                )
            self.functional[mono] = value

    def pair(self, poly):
        """Apply the intersection functional to the top-degree part."""
        total = 0j
        for mono, coeff in poly.degree_part(self.comp.cap).terms.items():
            frac = self.functional.get(mono)
            if frac is not None and frac != 0:
                total += coeff * float(frac)
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


def _rotations(value, where):
    """[{"symbol": ..., "rotation": ...}, ...] as (symbol, int) pairs."""
    out = []
    for i, entry in enumerate(_expect(value, list, "a list", where)):
        at = "%s[%d]" % (where, i)
        _expect(entry, dict, "an object with symbol and rotation", at)
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
    factors = _expect(twist_raw.get("factors"), list, "a list", "twist.factors")
    exponents = [_integer(e, "twist.exponents[%d]" % i) for i, e in enumerate(
        _expect(twist_raw.get("exponents", []), list, "a list", "twist.exponents"))]
    try:
        twist = TwistSpec(tuple(factors), tuple(exponents))
    except (EllrigError, ValueError) as exc:
        raise SchemaError("twist: %s" % exc)
    try:
        data = FixedPointData(tuple(components), k=k, parity=parity, odd_map=odd_map)
    except EllrigError as exc:
        raise SchemaError(str(exc))
    return data, twist


# --------------------------------------------------------------------------
# integrand assembly
# --------------------------------------------------------------------------


def _check_theta_pole(kind, centre, tau, comp_name, factor_desc, t):
    loc = theta_zero_location(kind, centre, tau)
    if loc is not None:
        raise SingularFactorError(
            "%s vanishes at %s (lattice point %r) in component %r"
            % (kind, factor_desc, loc, comp_name),
            component=comp_name, factor=factor_desc, t=t,
        )


def assemble_integrand(ctx, twist, t, tau, odd_map=None):
    """Full integrand of one component at numeric (t, tau) as a polynomial.

    With a Phi0-class factor present the tangent and normal kernels fuse
    with the elliptic-summand characters into the all-theta form: per
    tangent pair y the factor y theta'(0)/theta(y); per rotated normal pair
    theta'(0)/theta(x + m t); then the sum over the three even kinds of the
    matching quotients, and the fiber and odd factors of the remaining
    twists.  Without it the bare sinh-kernel recipe is used.
    """
    if isinstance(ctx, FixedComponentData):
        ctx = ComponentContext(ctx, odd_map)
    comp = ctx.comp
    gens, cap = ctx.gens, comp.cap
    tau = TauPoint.coerce(tau)
    factors = twist.expanded()
    has_phi0 = any(f is TwistFactor.PHI0 for f, _ in factors)

    def gen_jet(name):
        return ChernPoly.generator(gens, cap, name)

    def lift(value):
        # low caps truncate jets away entirely; keep everything in the ring
        if isinstance(value, ChernPoly):
            return value
        return ChernPoly.scalar(gens, cap, value)

    n_pairs = len(comp.tangent_roots) + len(comp.normal)
    out = ChernPoly.one(gens, cap)

    if has_phi0:
        tprime = theta_prime_zero(tau)
        zero_vals = {kind: theta_eval(kind, 0.0, tau)
                     for kind in (ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3)}
        out = out * (2.0 ** n_pairs * cmath.pi ** (-len(comp.normal)))
        kind_products = {kind: ChernPoly.one(gens, cap)
                         for kind in zero_vals}
        for y in comp.tangent_roots:
            jet = gen_jet(y)
            out = out * (theta_eval_regularized(jet, tau).inverse()
                         * tprime)
            for kind in kind_products:
                num = theta_eval(kind, jet, tau)
                kind_products[kind] = kind_products[kind] * (num / zero_vals[kind])
        for x, m in comp.normal:
            centre = m * t
            _check_theta_pole(ThetaKind.THETA, centre, tau, comp.name,
                              "theta(%s + %d t)" % (x, m), t)
            arg = gen_jet(x) + centre
            den = lift(theta_eval(ThetaKind.THETA, arg, tau))
            out = out * (den.inverse() * tprime)
            for kind in kind_products:
                num = theta_eval(kind, arg, tau)
                kind_products[kind] = kind_products[kind] * (num / zero_vals[kind])
        omega_sum = ChernPoly.zero(gens, cap)
        for kind in kind_products:
            omega_sum = omega_sum + kind_products[kind]
        out = out * omega_sum
    else:
        for y in comp.tangent_roots:
            out = out * sinc_jet(gen_jet(y)).inverse()
        for x, m in comp.normal:
            centre = complex(m * t)
            if abs(centre - round(centre.real)) < 1e-12:
                raise SingularFactorError(
                    "sin kernel vanishes at %s" % ("%s + %d t" % (x, m)),
                    component=comp.name, factor="sin(pi(%s + %d t))" % (x, m), t=t,
                )
            out = out * _trig_jet("sin", centre, gen_jet(x)).inverse()

    vb = FormalBundle(tuple(s for s, _ in comp.v_fibers),
                      tuple(n for _, n in comp.v_fibers))
    tangent_bundle = FormalBundle(
        tuple(comp.tangent_roots) + tuple(s for s, _ in comp.normal),
        (0,) * len(comp.tangent_roots) + tuple(m for _, m in comp.normal),
    )

    for factor, exponent in factors:
        family, j = ROLES[factor]
        if factor is TwistFactor.PHI0:
            continue
        if family == "fiber":
            # fiber thetas sit in the numerator; their zeros are not poles
            piece = ch_theta_twist(factor, vb, t, tau, gens=gens, cap=cap,
                                   exponent=exponent)
        elif factor is TwistFactor.DELTA_V:
            piece = ch_delta(comp.v_fibers, t, gens, cap) ** exponent
        elif family == "odd":
            if odd_map is None:
                raise PreconditionError(
                    "twist %s needs odd map data on the document" % factor
                )
            piece = odd_ch_Q(j, odd_map, tau, cap=cap, gens=gens)
            piece = piece ** exponent
        else:
            try:
                piece = ch_theta_twist(factor, tangent_bundle, t, tau, gens=gens,
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

    @property
    def is_scalar(self):
        return not self.root_coefficients


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
            "the Phi0-class and Q(V) ladders" % bad
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
    return AnomalyFactor(cmath.exp(scalar_exp), cleaned, tuple(log_entries))


def anomaly_factor(data, twist, t, tau, a):
    """Global anomaly factor; defined when every component agrees on a
    scalar multiplier (root parts vanish)."""
    factors = [component_anomaly(ctx, twist, t, tau, a) for ctx in data.contexts]
    if not factors:
        raise PreconditionError("document has no components")
    for f in factors:
        if not f.is_scalar:
            raise PreconditionError(
                "anomaly has root-dependent terms %r; no global scalar multiplier"
                % f.root_coefficients
            )
        if abs(f.multiplier - factors[0].multiplier) > 1e-12 * max(1.0, abs(f.multiplier)):
            raise PreconditionError(
                "components disagree on the anomaly multiplier; no global value"
            )
    return factors[0]


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
    """Anomaly-applied translation law with its natural error scale."""
    tau = TauPoint.coerce(tau)
    a = int(a)
    if a % 2 != 0:
        raise PreconditionError("the translation laws hold for even steps")
    shifted = lefschetz_eval(data, twist, t + a * tau.value, tau)
    expected, scale = _anomaly_applied_eval(data, twist, t, tau, a)
    return TranslationCheck(abs(shifted - expected), scale, shifted, expected)


def periodicity_residual(data, twist, t, tau, a, mode):
    """Translation defects.

    mode 't+a':    |L(t+a) - L(t)|, unconditional for even a.
    mode 't+atau': |L(t + a tau) - (anomaly applied to L)(t)|; the anomaly
    factor is assembled independently from the one-step shift laws, so this
    residual is small whether or not the vanishing conditions hold.  The
    anomaly reduces to the scalar AnomalyFactor exactly on documents whose
    root terms cancel, and to 1 exactly when the vanishing conditions pass.
    """
    tau = TauPoint.coerce(tau)
    a = int(a)
    if a % 2 != 0:
        raise PreconditionError("the translation laws hold for even steps")
    if mode == "t+a":
        return abs(lefschetz_eval(data, twist, t + a, tau)
                   - lefschetz_eval(data, twist, t, tau))
    if mode == "t+atau":
        return translation_anomaly_check(data, twist, t, tau, a).residual
    raise PreconditionError("mode must be 't+a' or 't+atau'")


def anomaly_ratio_check(data, twist, t, tau, a):
    """Measured ratio L(t + a tau)/L(t) against the assembled global factor.

    Returns (measured, assembled multiplier, absolute difference).
    """
    tau = TauPoint.coerce(tau)
    base = lefschetz_eval(data, twist, t, tau)
    if base == 0:
        raise PreconditionError("L(t) = 0; the ratio is undefined at this t")
    shifted = lefschetz_eval(data, twist, t + int(a) * tau.value, tau)
    measured = shifted / base
    fac = anomaly_factor(data, twist, t, tau, a)
    return measured, fac.multiplier, abs(measured - fac.multiplier)


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
            raise PreconditionError(
                "components carry different fiber counts; the S constant "
                "2^(e l) is not globally defined for this twist"
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
    the document's parity; unmet preconditions report as skipped, not as
    failures.
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
    perm, const = permuted_twist(twist, g, data)
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
    excluded rather than failing the sweep.
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
        raise PreconditionError("every grid point was singular")
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
    sample_magnitude: float = None


def pole_scan(data, twist, tau, c_range, d_range, l_max, sample=True):
    """Candidate singular parameters t = (k/l)(c tau + d).

    Detection is exact: a candidate is reported when some rotated normal
    factor's theta argument lands on the zero lattice (integer arithmetic
    plus the lattice membership check), never by magnitude thresholds.
    A nearby |L| sample is attached for orientation when requested.
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
                    frac = Fraction(k, l) if l else None
                    t0 = float(frac) * (c * tau.value + d)
                    for ctx in data.contexts:
                        for sym, m in ctx.comp.normal:
                            if (m * k * c) % l or (m * k * d) % l:
                                continue
                            loc = theta_zero_location(ThetaKind.THETA, m * t0, tau)
                            if loc is None:
                                continue
                            key = (round(t0.real, 9), round(t0.imag, 9),
                                   ctx.comp.name, sym)
                            if key in seen:
                                continue
                            seen.add(key)
                            mag = None
                            if sample:
                                try:
                                    probe = t0 + 0.001 + 0.0017j
                                    mag = abs(lefschetz_eval(data, twist, probe, tau))
                                except SingularFactorError:
                                    mag = math.inf
                            hits.append(PoleHit(
                                t=t0, k=k, l=l, c=c, d=d,
                                component=ctx.comp.name, symbol=sym, rotation=m,
                                lattice=loc, sample_magnitude=mag,
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
