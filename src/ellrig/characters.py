"""Characteristic-form calculus over formal Chern roots.

Covers the classical multiplicative genera (the sinh and tanh kernels),
total exterior/symmetric power characters, the theta-quotient characters of
the twisted spinor-bundle ladders as formal q-expansions (for ``expand``;
the fixed-point engine builds the same factors at numeric tau from
univariate series), an independent tensor-expansion oracle for those
characters, and the odd (trace-generator) characters of maps into the
orthogonal group.

Every :class:`TwistFactor` has one role in ``ROLES``: its family (tangent
ladder Theta_j, fiber ladder Q_jV, odd ladder Q_jE, Psi_j, or one of Phi0,
Phi, DeltaV) and its ladder index j, whose theta kind is THETA_KINDS[j]
(j = 0 off the ladders).  S and T act on j as they act on the characteristic
(a, b) of theta_j (DLMF 20.7; :class:`ellrig.theta.ThetaKind`): S swaps 1
and 2, T swaps 2 and 3.  Ladder 1 alone carries the spinor doubling, so g
moves ladder j with the constant 2^(s_j l) on l fibers, or 2^(s_j N/2) for
an odd map of rank N, where
s_j = [j = 1] - [g(j) = 1]: s_1 = +1, s_2 = -1, s_3 = 0 under S, all 0 under T.

Root convention: roots are stored as the plain variables fed to theta
arguments, so every equivariant exponential is e^{2 pi i (root + n t)}.
The standalone genus operations default to the unit-root normalization of
their textbook kernels; callers that work in the stored convention pass the
appropriate ``root_scale``.
"""

from __future__ import annotations

import cmath
import enum
import math
import re
from fractions import Fraction

from .errors import CapacityError, PreconditionError
from .polynomial import ChernPoly, Generators
from .record import Record
from .series import QExponent, QSeries, qexp
from .theta import (
    THETA_KINDS,
    TWO_PI_I,
    TauPoint,
    ThetaKind,
    _Argument,
    _theta_qseries,
    _trig_jet,
    sinc_jet,
    theta_jet_coefficients,
    theta_qseries,
    theta_qseries_regularized,
)

ORACLE_MAX_ORDER = qexp(3)


class TwistFactor(enum.Enum):
    """Tensor factors that can multiply a Lefschetz integrand."""

    THETA1 = "Theta1"
    THETA2 = "Theta2"
    THETA3 = "Theta3"
    Q1V = "Q1V"
    Q2V = "Q2V"
    Q3V = "Q3V"
    DELTA_V = "DeltaV"
    PHI0 = "Phi0"
    PHI = "Phi"
    PSI1 = "Psi1"
    PSI2 = "Psi2"
    PSI3 = "Psi3"
    Q1E = "Q1E"
    Q2E = "Q2E"
    Q3E = "Q3E"

    # members are singletons, so identity hashing agrees with ==
    __hash__ = object.__hash__

    def __str__(self):
        return self.value


# (family, ladder index j) of every factor
ROLES = {TwistFactor(name % j): (family, j)
         for family, name in (("tangent", "Theta%d"), ("fiber", "Q%dV"),
                              ("odd", "Q%dE"), ("psi", "Psi%d"))
         for j in (1, 2, 3)}
ROLES.update({TwistFactor.PHI0: ("phi0", 0), TwistFactor.PHI: ("phi", 0),
              TwistFactor.DELTA_V: ("delta", 0)})
_FACTORS = {role: factor for factor, role in ROLES.items()}

# families with a standalone quotient form (ch_theta_twist); the others are
# assembled by the fixed-point engine
QUOTIENT_FAMILIES = ("tangent", "fiber", "delta")


def ladder_image(j, g):
    """Index of the ladder that g ('S' or 'T') sends ladder j to."""
    kind = THETA_KINDS[j]
    return THETA_KINDS.index({"S": kind.s_image, "T": kind.t_image}[g])


def spinor_shift(j, g):
    """s_j: the power of 2 per unit of spinor rank that g puts on ladder j."""
    return (j == 1) - (ladder_image(j, g) == 1)


class TwistSpec(Record):
    """Which factors multiply the integrand, with per-factor integer exponents."""

    __slots__ = _fields = ("factors", "exponents")

    def __init__(self, factors, exponents=()):
        factors = tuple(f if isinstance(f, TwistFactor) else TwistFactor(f) for f in factors)
        exps = tuple(int(e) for e in exponents) or (1,) * len(factors)
        if len(exps) != len(factors):
            raise PreconditionError("one exponent per factor is required")
        if any(e < 1 for e in exps):
            raise PreconditionError("factor exponents must be positive integers")
        families = [ROLES[f][0] for f in factors]
        if sum(1 for family in families if family in ("phi0", "phi", "psi")) > 1:
            raise PreconditionError("at most one Phi0-class factor (Phi0, Phi, Psi_i) is "
                                    "allowed; it already bundles the three elliptic summands")
        for f, family, e in zip(factors, families, exps):
            if family in ("phi0", "phi") and e != 1:
                raise PreconditionError("exponents target the fiber ladders; %s takes "
                                        "exponent 1" % f)
        self._set(factors, exps)

    def expanded(self):
        """Flatten Phi and Psi_i into their constituent factors."""
        out = []
        for f, e in zip(self.factors, self.exponents):
            family, j = ROLES[f]
            if family == "phi":
                out.append((TwistFactor.PHI0, 1))
                out.extend((_FACTORS["fiber", i], 1) for i in (1, 2, 3))
            elif family == "psi":
                out.extend([(TwistFactor.PHI0, 1), (_FACTORS["fiber", j], e),
                            (_FACTORS["odd", j], 1)])
            else:
                out.append((f, e))
        return out

    def v_theta_weight(self):
        """Total theta-exponent carried by each fiber across all V factors
        (what multiplies the translation anomaly)."""
        return sum(e for f, e in self.expanded() if ROLES[f][0] == "fiber")

    def image(self, g):
        """The twist g ('S' or 'T') carries this one to, and the exponents
        (a, b) of the constant 2^(a l + b N/2) between them: a fiber ladder
        of exponent e adds s_j e to a, an odd ladder adds s_j to b, and
        Psi_j does both."""
        factors, a, b = [], 0, 0
        for f, e in zip(self.factors, self.exponents):
            family, j = ROLES[f]
            factors.append(_FACTORS[family, ladder_image(j, g)])
            s = spinor_shift(j, g)
            if family in ("fiber", "psi"):
                a += s * e
            if family in ("odd", "psi"):
                b += s
        return TwistSpec(tuple(factors), self.exponents), a, b


class FormalBundle(Record):
    """Root data of a real bundle restricted to one fixed component.

    It lists one symbol per +-pair of Chern roots; the rotation
    integer is the exponent of the circle action on that piece (zero for
    fixed directions).  ``rank_offset`` adds trivial summands; the reduced
    bundle E - dim E carries rank_offset = -rank.
    """

    __slots__ = _fields = ("symbols", "rotations", "rank_offset")

    def __init__(self, symbols, rotations=(), rank_offset=0):
        symbols = tuple(symbols)
        rot = tuple(int(r) for r in rotations) or (0,) * len(symbols)
        if len(rot) != len(symbols):
            raise PreconditionError("one rotation per root symbol is required")
        self._set(symbols, rot, rank_offset)

    @property
    def rank_c(self):
        return 2 * len(self.symbols) + self.rank_offset

    def tilde(self):
        return FormalBundle(self.symbols, self.rotations, -2 * len(self.symbols))

    def root_list(self):
        """(symbol, sign, rotation) per individual Chern root: each symbol
        stands for the pair of roots +-z."""
        out = []
        for s, n in zip(self.symbols, self.rotations):
            out.append((s, +1, n))
            out.append((s, -1, -n))
        return out

    def fibers(self):
        return tuple(zip(self.symbols, self.rotations))


# --------------------------------------------------------------------------
# multiplicative genus kernels
# --------------------------------------------------------------------------


def _invert_one_series(coeffs):
    """Inverse of 1 + sum_{k>=1} c_k u^k as rational coefficient list."""
    n = len(coeffs)
    inv = [Fraction(0)] * n
    inv[0] = Fraction(1)
    for m in range(1, n):
        acc = Fraction(0)
        for k in range(1, m + 1):
            acc += coeffs[k] * inv[m - k]
        inv[m] = -acc
    return inv


def ahat_kernel_coefficients(half_terms):
    """Even-series coefficients of (u/2)/sinh(u/2): list over u^{2k}."""
    ratio = [Fraction(1, 4 ** k * math.factorial(2 * k + 1)) for k in range(half_terms)]
    return _invert_one_series(ratio)


def lhat_kernel_coefficients(half_terms):
    """Even-series coefficients of u/tanh(u) = cosh(u) * (sinh(u)/u)^{-1}."""
    cosh = [Fraction(1, math.factorial(2 * k)) for k in range(half_terms)]
    sinh_over = [Fraction(1, math.factorial(2 * k + 1)) for k in range(half_terms)]
    inv = _invert_one_series(sinh_over)
    out = [
        sum(cosh[j] * inv[k - j] for j in range(k + 1))
        for k in range(half_terms)
    ]
    return out


def _even_kernel_product(bundle, gens, cap, coeffs, root_scale):
    out = ChernPoly.one(gens, cap)
    for name in bundle.symbols:
        u = ChernPoly.generator(gens, cap, name, root_scale)
        sq = u * u
        factor = ChernPoly.one(gens, cap)
        power = ChernPoly.one(gens, cap)
        for k in range(1, cap // 2 + 1):
            power = power * sq
            if not power:
                break
            factor = factor + power * complex(coeffs[k])
        out = out * factor
    return out


def ahat(bundle, gens, cap, root_scale=1.0):
    """Product over root pairs of (u/2)/sinh(u/2); unit leading term."""
    coeffs = ahat_kernel_coefficients(cap // 2 + 1)
    return _even_kernel_product(bundle, gens, cap, coeffs, root_scale)


def lhat(bundle, gens, cap, root_scale=1.0):
    """Product over root pairs of the tanh kernel u/tanh(u), unit leading
    term (the degree-4 density reproduces the signature)."""
    coeffs = lhat_kernel_coefficients(cap // 2 + 1)
    return _even_kernel_product(bundle, gens, cap, coeffs, root_scale)


# --------------------------------------------------------------------------
# exterior / symmetric power characters
# --------------------------------------------------------------------------


def ch_power_op(bundle, op, t, gens, cap, root_scale=1.0, circle_t=0.0):
    """Character of the total exterior (op='lambda') or symmetric (op='sym')
    power at parameter t.

    t may be a complex number (result: ChernPoly) or a QSeries such as a
    q-power monomial (result: QSeries with ChernPoly coefficients).  Each
    root omega contributes (1 + t e^{scale*omega}) or its inverse with the
    minus sign; rank_offset contributes powers of (1 +- t).  Rotations enter
    as numeric phases e^{2 pi i n * circle_t}.
    """
    if op not in ("lambda", "sym"):
        raise PreconditionError("op must be 'lambda' or 'sym'")
    return _power_op(bundle, op, t, gens, cap,
                     _root_exponentials(bundle, gens, cap, root_scale, circle_t))


def _root_exponentials(bundle, gens, cap, root_scale, circle_t):
    """e^{scale * omega} e^{2 pi i n circle_t} of each root omega of rotation
    n, in :meth:`FormalBundle.root_list` order."""
    out = []
    for name, root_sign, rot in bundle.root_list():
        root = ChernPoly.generator(gens, cap, name, root_sign * root_scale)
        phase = cmath.exp(TWO_PI_I * rot * circle_t) if rot else 1.0
        out.append(root.exp() * phase)
    return out


def _power_op(bundle, op, t, gens, cap, e_roots):
    """:func:`ch_power_op` from the root exponentials, which the oracle
    makes once for all its rungs."""
    sign = 1.0 if op == "lambda" else -1.0
    one = ChernPoly.one(gens, cap)
    acc = QSeries({qexp(0): one}, t.order) if isinstance(t, QSeries) else one

    inverses = []
    for e_root in e_roots:
        factor = t * (sign * e_root) + 1.0
        if op == "lambda":
            acc = acc * factor
        else:
            inverses.append(factor)
    # trivial summands
    unit = t * sign + 1.0
    m = bundle.rank_offset
    if op == "lambda":
        if m > 0:
            acc = acc * unit ** m
        elif m < 0:
            inverses.append(unit ** (-m))
    else:
        if m > 0:
            inverses.append(unit ** m)
        elif m < 0:
            acc = acc * unit ** (-m)

    for factor in inverses:
        acc = acc * (factor.inverse() if hasattr(factor, "inverse") else 1.0 / factor)
    return acc


# --------------------------------------------------------------------------
# theta-quotient characters of the twisted ladders
# --------------------------------------------------------------------------


def ch_delta(fibers, t, gens, cap):
    """Spinor-bundle character: product over fibers of 2 cos(pi(z + n t))."""
    out = ChernPoly.one(gens, cap)
    for name, rot in fibers:
        jet = ChernPoly.generator(gens, cap, name)
        out = out * (2 * _trig_jet("cos", rot * t, jet))
    return out


def ch_theta_twist(factor, bundle, t, *, gens, cap, q_order, exponent=1):
    """Theta-quotient form of one twist factor's equivariant character, as a
    formal q-expansion to ``q_order`` (QSeries over ChernPoly).

    Fiber factors (Q1V/Q2V/Q3V) produce, per fiber, theta_j(z + n t)/theta_j(0)
    with theta_j = THETA_KINDS[j]; the Q1V case carries the spinor prefactor
    2 per fiber.  Tangent-ladder factors (Theta1/2/3) produce, per root pair,
    the symmetric-power quotient times the matching theta ratio.  DeltaV is
    the bare spinor character.  Each is raised to the power ``exponent``.
    This serves ``ellrig expand``, against :func:`ch_twist_oracle`; the
    fixed-point engine builds the same factors at a numeric tau from
    univariate series (:mod:`ellrig.lefschetz`).
    """
    factor = factor if isinstance(factor, TwistFactor) else TwistFactor(factor)
    family, j = ROLES[factor]
    if family not in QUOTIENT_FAMILIES:
        raise PreconditionError(
            "%s is assembled by the fixed-point engine, not as a standalone quotient"
            % factor
        )
    q_order = QExponent.of(q_order)
    acc = QSeries({qexp(0): ChernPoly.one(gens, cap)}, q_order)
    fibers = bundle.fibers()
    if family == "delta":
        spinor = ch_delta(fibers, t, gens, cap)
        for _ in range(exponent):
            acc = acc * spinor
        return acc
    if not fibers:
        return acc

    kind = THETA_KINDS[j]
    # the values at 0 do not depend on the fiber, so each is made once
    theta0 = theta_qseries(kind, 0.0, None, q_order)
    if family == "tangent":
        tprime = theta_qseries_regularized(ChernPoly.zero(gens, cap), q_order)
    for name, rot in fibers:
        # theta_kind, theta, sin and cos at one fiber share its exponentials
        centre = rot * t
        arg = _Argument(centre, ChernPoly.generator(gens, cap, name))
        ratio = _theta_qseries(kind, arg, q_order) / theta0
        if family == "tangent":
            # symmetric-power part: sin(pi w) theta'(0) / (pi theta(w))
            centre = complex(centre)
            if centre.imag == 0 and centre.real.is_integer():
                # sin(pi w) and theta(w) both vanish linearly at w = n and
                # both change sign under w -> w + 1, so the quotient is the
                # one at 0, where each is divided by w
                s_part = tprime * sinc_jet(arg.jet) / theta_qseries_regularized(arg.jet, q_order)
            else:
                s_part = (tprime * arg.trig("sin")
                          / _theta_qseries(ThetaKind.THETA, arg, q_order) * (1.0 / cmath.pi))
            if j == 1 and centre.imag == 0 and (centre.real + 0.5).is_integer():
                # theta1(w)/cos(pi w) = theta(w + 1/2)/sin(pi(w + 1/2)), by
                # the same rule at w + 1/2
                ratio = (theta_qseries_regularized(arg.jet, q_order) / theta0
                         / (cmath.pi * sinc_jet(arg.jet)))
            elif j == 1:
                # exterior ladder with +q^m needs the cosine stripped
                ratio = ratio / arg.trig("cos")
            ratio = s_part * ratio
        elif j == 1:
            # theta1 ratio carries cos(pi v); the spinor doubling restores
            # the 2cos(pi v) of Delta(V) per fiber
            ratio = ratio * 2.0
        for _ in range(exponent):
            acc = acc * ratio
    return acc


# --------------------------------------------------------------------------
# independent tensor-expansion oracle
# --------------------------------------------------------------------------


def ch_twist_oracle(factor, bundle, t, q_order, gens, cap):
    """Character of a twisted ladder by literal order-by-order expansion.

    Builds the tensor product of exterior/symmetric powers of the reduced
    bundle as a q-series with polynomial coefficients, using nothing but the
    power-operation characters.  Serves as the independent oracle for
    :func:`ch_theta_twist` (the expansion is formal in q).

    The ladder is cut off once the next rung exceeds the requested order;
    orders above q^3 are refused as a cost guard.
    """
    factor = factor if isinstance(factor, TwistFactor) else TwistFactor(factor)
    q_order = QExponent.of(q_order)
    if q_order > ORACLE_MAX_ORDER:
        raise CapacityError(
            "oracle expansion is limited to q^(%s); q^(%s) requested"
            % (ORACLE_MAX_ORDER, q_order)
        )
    family, j = ROLES[factor]
    if family not in QUOTIENT_FAMILIES:
        raise PreconditionError("oracle covers the Theta and Q(V) ladders, not %s" % factor)
    acc = QSeries({qexp(0): ChernPoly.one(gens, cap)}, q_order)
    if family == "delta":
        # 2 cos(pi w) = e^{-pi i w} (1 + e^{2 pi i w}) per fiber, w = z + n t,
        # from the root exponentials e^{+-pi i w}, not ch_delta's cosine jets
        halves = _root_exponentials(bundle, gens, cap, cmath.pi * 1j, t / 2)
        spinor = ChernPoly.one(gens, cap)
        for plus, minus in zip(halves[::2], halves[1::2]):
            spinor = spinor * (minus * (plus * plus + 1.0))
        return acc * spinor
    tilde = bundle.tilde()
    # every rung reads the same root exponentials
    e_roots = _root_exponentials(tilde, gens, cap, TWO_PI_I, t)

    def power(op, exponent, sign=1.0):
        return _power_op(tilde, op, QSeries.monomial(exponent, sign, q_order),
                         gens, cap, e_roots)

    if family == "tangent":
        for n in range(1, q_order.eighths // 8 + 1):
            acc = acc * power("sym", qexp(n))
    elif j == 1:
        acc = acc * ch_delta(bundle.fibers(), t, gens, cap)
    # ladder 1 has the integer rungs with +; ladders 2 and 3 the half-integer
    # rungs with - and +
    if j == 1:
        rungs = [(qexp(n), 1.0) for n in range(1, q_order.eighths // 8 + 1)]
    else:
        rungs = _half_rungs(q_order, -1.0 if j == 2 else 1.0)
    for exponent, sign in rungs:
        acc = acc * power("lambda", exponent, sign)
    return acc


def _half_rungs(q_order, sign):
    out = []
    n = 1
    while True:
        e = qexp(n) - qexp(Fraction(1, 2))
        if e >= q_order:
            return out
        out.append((e, sign))
        n += 1


# --------------------------------------------------------------------------
# odd characters of orthogonal maps
# --------------------------------------------------------------------------


class OddMapData(Record):
    """Data of a map into SO(N): the rank and the declared vanishing of the
    degree-3 trace class.  N must be even (spinor rank 2^{N/2})."""

    __slots__ = _fields = ("N", "c3_vanishes")

    def __init__(self, N, c3_vanishes=False):
        if N % 2 != 0 or N <= 0:
            raise PreconditionError("the orthogonal rank N must be a positive even integer")
        self._set(N, c3_vanishes)

    def trace_generator_names(self, cap):
        """T1, T3, T5, ... up to weight cap; T3 is dropped when its class
        is declared zero."""
        names = []
        for m in range(0, (cap - 1) // 2 + 1):
            w = 2 * m + 1
            if w == 3 and self.c3_vanishes:
                continue
            names.append("T%d" % w)
        return tuple(names)


_TRACE_NAME = re.compile(r"T(\d+)$")


def generator_weight(name):
    """Weight of a generator symbol: ``T<w>``, the degree-w odd trace class,
    has weight w; every other symbol is a Chern root of weight 1."""
    m = _TRACE_NAME.match(name)
    return int(m.group(1)) if m else 1


def odd_trace_generators(odd_map, cap):
    """Generator declaration for the odd trace symbols alone."""
    names = odd_map.trace_generator_names(cap)
    return Generators(names, tuple(map(generator_weight, names)), (True,) * len(names))


def u_moment(k):
    """Exact value of the u-integral of (u^2 - u)^k over [0, 1]."""
    k = int(k)
    return Fraction((-1) ** k * math.factorial(k) ** 2, math.factorial(2 * k + 1))


def log_derivative_coefficients(kind, tau, k_max):
    """Taylor coefficients a_k of theta_kind'(x,tau)/theta_kind(x,tau) at x=0.

    Computed from the Taylor coefficients of theta at 0 to degree k_max+1:
    the derivative by coefficient shift, then one truncated power-series
    division.
    """
    jet_cap = k_max + 1
    c = theta_jet_coefficients(kind, 0.0, tau, jet_cap)
    cp = [(m + 1) * c[m + 1] for m in range(jet_cap)]
    if c[0] == 0:
        raise PreconditionError("theta kind %s vanishes at 0; no log derivative" % kind)
    # truncated division cp / c
    a = []
    for m in range(k_max + 1):
        acc = cp[m]
        for j in range(m):
            acc -= a[j] * c[m - j]
        a.append(acc / c[0])
    return a


def odd_ch_Q(j, odd_map, tau, *, cap=7):
    """Odd Chern character of the j-th twisted ladder of the trivial bundle.

    Expands theta_j'/theta_j as a series in x, substitutes the curvature
    x = (u^2-u) W^2/(4 pi^2), integrates each u-monomial exactly, and
    collects the odd traces Tr[W^{2k+1}] into the generators T_{2k+1}.  The
    j=1 ladder carries the spinor rank 2^{N/2}; all carry -1/(8 pi^2).  The
    result is strictly linear in the T generators, a polynomial over
    :func:`odd_trace_generators` at ``cap``.  It depends on tau only, so it
    is staged on tau.
    """
    if j not in (1, 2, 3):
        raise PreconditionError("ladder index must be 1, 2 or 3")
    if cap < 3:
        raise CapacityError("odd characters need degree capacity >= 3 (T3 at least)")
    tau = TauPoint.coerce(tau)
    return tau.staged(("odd_ch_Q", j, odd_map, cap), lambda: _odd_ch_Q(j, odd_map, tau, cap))


def _odd_ch_Q(j, odd_map, tau, cap):
    gens = odd_trace_generators(odd_map, cap)
    k_max = (cap - 1) // 2
    a = log_derivative_coefficients(THETA_KINDS[j], tau, k_max)
    pref = -(2.0 ** (odd_map.N // 2) if j == 1 else 1.0) / (8 * cmath.pi ** 2)
    out = ChernPoly.zero(gens, cap)
    # the log derivative of an even theta kind is odd in x, so the even
    # Taylor coefficients vanish identically (T1, T5, ... drop)
    for k in range(1, k_max + 1, 2):
        name = "T%d" % (2 * k + 1)
        coeff = pref * a[k] * float(u_moment(k)) / (4 * cmath.pi ** 2) ** k
        if name in gens.names and coeff != 0:
            out = out + ChernPoly.generator(gens, cap, name, coeff)
    return out


def odd_transform_residual(pair, i, tau, odd_map, *, cap=None):
    """Defect of the degree-(4i-1) transformation relation between the odd
    characters at -1/tau and at tau.

    Compares the T_{4i-1} coefficient of the source ladder at -1/tau with
    const * tau^{2i} times the target ladder's coefficient at tau, where
    const is 2^{N/2}, 2^{-N/2} or 1 for the pairs 1->2, 2->1, 3->3: the
    pairs are (j, S(j)) and const is 2^(s_j N/2), as in :meth:`TwistSpec.image`.
    """
    pair = tuple(pair)
    if pair not in {(j, ladder_image(j, "S")) for j in (1, 2, 3)}:
        raise PreconditionError("pair must be one of (1,2), (2,1), (3,3)")
    i = int(i)
    degree = 4 * i - 1
    if cap is None:
        cap = degree
    if cap < degree:
        raise CapacityError("degree %d exceeds capacity %d" % (degree, cap))
    tau = TauPoint.coerce(tau)
    s_tau = tau.shifted(-1.0 / tau.value)
    src, dst = pair
    name = "T%d" % degree
    lhs_poly = odd_ch_Q(src, odd_map, s_tau, cap=cap)
    rhs_poly = odd_ch_Q(dst, odd_map, tau, cap=cap)
    if name in odd_map.trace_generator_names(cap):
        lhs, rhs = lhs_poly.coefficient({name: 1}), rhs_poly.coefficient({name: 1})
    else:
        # the degree-(4i-1) class is declared zero; both sides vanish with it
        lhs = rhs = 0j
    const = 2.0 ** (spinor_shift(src, "S") * (odd_map.N // 2))
    return abs(lhs - const * tau.value ** (2 * i) * rhs)
