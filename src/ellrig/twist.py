"""Twist vocabulary of the fixed-point engine, and the odd characters of
maps into the orthogonal group, with no formal ring.

Every :class:`TwistFactor` has one role in ``ROLES``: its family (tangent
ladder Theta_j, fiber ladder Q_jV, odd ladder Q_jE, Psi_j, or one of Phi0,
Phi, DeltaV) and its ladder index j, whose theta kind is THETA_KINDS[j]
(j = 0 off the ladders).  S and T act on j as they act on the characteristic
(a, b) of theta_j (DLMF 20.7; :class:`ellrig.theta.ThetaKind`): S swaps 1
and 2, T swaps 2 and 3.  Ladder 1 alone carries the spinor doubling, so g
moves ladder j with the constant 2^(s_j l) on l fibers, or 2^(s_j N/2) for
an odd map of rank N, where
s_j = [j = 1] - [g(j) = 1]: s_1 = +1, s_2 = -1, s_3 = 0 under S, all 0 under T.
"""

from __future__ import annotations

import cmath
import enum
import math
import re
import sys
from fractions import Fraction

from .errors import CapacityError, PreconditionError
from .record import Record
from .theta import THETA_KINDS, TauPoint, theta_jet_coefficients


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


# --------------------------------------------------------------------------
# odd characters of orthogonal maps
# --------------------------------------------------------------------------


# the largest even N whose 2^(N/2) is a finite double
MAX_ODD_RANK = 2 * (sys.float_info.max_exp - 1)


class OddMapData(Record):
    """Data of a map into SO(N): the rank and the declared vanishing of the
    degree-3 trace class.  N must be even (spinor rank 2^{N/2}), and the
    spinor rank a double: N <= MAX_ODD_RANK."""

    __slots__ = _fields = ("N", "c3_vanishes")

    def __init__(self, N, c3_vanishes=False):
        if N % 2 != 0 or N <= 0:
            raise PreconditionError("the orthogonal rank N must be a positive even integer")
        if N > MAX_ODD_RANK:
            raise CapacityError("the spinor rank 2^(N/2) of N = %d is out of float range; "
                                "N is at most %d" % (N, MAX_ODD_RANK))
        self._set(N, c3_vanishes)

    def trace_generator_names(self, cap):
        """T1, T3, T5, ... up to weight cap; T3 is dropped when its class
        is declared zero."""
        dropped = 3 if self.c3_vanishes else None
        return tuple("T%d" % w for w in range(1, cap + 1, 2) if w != dropped)


_TRACE_NAME = re.compile(r"T(\d+)$")


def generator_weight(name):
    """Weight of a generator symbol: ``T<w>``, the degree-w odd trace class,
    has weight w; every other symbol is a Chern root of weight 1."""
    m = _TRACE_NAME.match(name)
    return int(m.group(1)) if m else 1


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
    result is strictly linear in the T generators: a dict {T_w: coefficient}
    over ``odd_map.trace_generator_names(cap)``, in that order, with the
    nonzero coefficients only.  It depends on tau only, so it is staged on
    tau, and it is shared: callers do not mutate it.
    """
    if j not in (1, 2, 3):
        raise PreconditionError("ladder index must be 1, 2 or 3")
    if cap < 3:
        raise CapacityError("odd characters need degree capacity >= 3 (T3 at least)")
    tau = TauPoint.coerce(tau)
    return tau.staged(("odd_ch_Q", j, odd_map, cap), lambda: _odd_ch_Q(j, odd_map, tau, cap))


def _odd_ch_Q(j, odd_map, tau, cap):
    names = odd_map.trace_generator_names(cap)
    k_max = (cap - 1) // 2
    a = log_derivative_coefficients(THETA_KINDS[j], tau, k_max)
    pref = -(2.0 ** (odd_map.N // 2) if j == 1 else 1.0) / (8 * cmath.pi ** 2)
    out = {}
    # the log derivative of an even theta kind is odd in x, so the even
    # Taylor coefficients vanish identically (T1, T5, ... drop)
    for k in range(1, k_max + 1, 2):
        name = "T%d" % (2 * k + 1)
        try:
            scale = (4 * cmath.pi ** 2) ** k
        except OverflowError:
            raise CapacityError("odd characters at degree cap %d need (4 pi^2)^%d, which is "
                                "out of float range; lower the degree cap" % (cap, k)) from None
        coeff = pref * a[k] * float(u_moment(k)) / scale
        if name in names and coeff != 0:
            out[name] = 0j + coeff  # a sum with 0, so a -0.0 part reads 0.0
    return out


def odd_transform_residual(pair, i, tau, odd_map, *, cap=None):
    """Defect of the degree-(4i-1) transformation relation between the odd
    characters at -1/tau and at tau.

    Compares the T_{4i-1} coefficient of the source ladder at -1/tau with
    const * tau^{2i} times the target ladder's coefficient at tau, where
    const is 2^{N/2}, 2^{-N/2} or 1 for the pairs 1->2, 2->1, 3->3: the
    pairs are (j, S(j)) and const is 2^(s_j N/2), as in :meth:`TwistSpec.image`.
    A class declared zero has no coefficient, so both sides read 0.  Where
    the target coefficient is 0 the defect is |lhs| and const * tau^{2i} is
    not formed: at N = 2046 it overflows, and inf times 0 would read NaN.
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
    lhs = odd_ch_Q(src, odd_map, s_tau, cap=cap).get(name, 0j)
    rhs = odd_ch_Q(dst, odd_map, tau, cap=cap).get(name, 0j)
    if rhs == 0:
        return abs(lhs)
    const = 2.0 ** (spinor_shift(src, "S") * (odd_map.N // 2))
    return abs(lhs - const * tau.value ** (2 * i) * rhs)
