"""The formal ladder characters built rung by rung and fiber by fiber.

``ch_theta_twist`` builds the theta ratio of a fiber once per rotation and
renames its generator for every other fiber of that rotation, and
``ch_twist_oracle`` runs ``_power_op`` once per power operation and sign
and re-keys that series for every later rung.  These are the routes without
that reuse: every fiber's ratio from its own generator, and every rung from
its own q-monomial.  They share the ring and the theta series with the live
routes, so the two must agree bit for bit, key order included.
"""

import cmath

from ellrig.characters import (
    ORACLE_MAX_ORDER,
    _Argument,
    _power_op,
    _root_exponentials,
    _signed_roots,
    _theta_qseries,
    ch_delta,
    sinc_jet,
    theta_qseries,
    theta_qseries_regularized,
)
from ellrig.errors import CapacityError
from ellrig.polynomial import ChernPoly
from ellrig.series import QExponent, QSeries, qexp
from ellrig.theta import THETA_KINDS, TWO_PI_I, ThetaKind
from ellrig.twist import ROLES, TwistFactor


def theta_twist_by_fibers(factor, bundle, t, *, gens, cap, q_order, exponent=1):
    """:func:`ellrig.characters.ch_theta_twist`, each fiber's ratio made
    from its own generator."""
    family, j = ROLES[TwistFactor(factor)]
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
    theta0_inv = theta_qseries(kind, 0.0, None, q_order).inverse()
    if family == "tangent":
        tprime = theta_qseries_regularized(ChernPoly.zero(gens, cap), q_order)
    for name, rot in fibers:
        centre = rot * t
        arg = _Argument(centre, ChernPoly.generator(gens, cap, name))
        ratio = _theta_qseries(kind, arg, q_order) * theta0_inv
        if family == "tangent":
            centre = complex(centre)
            if centre.imag == 0 and centre.real.is_integer():
                s_part = tprime * sinc_jet(arg.jet) / theta_qseries_regularized(arg.jet, q_order)
            else:
                s_part = (tprime * arg.trig("sin")
                          / _theta_qseries(ThetaKind.THETA, arg, q_order) * (1.0 / cmath.pi))
            if j == 1 and centre.imag == 0 and (centre.real + 0.5).is_integer():
                ratio = (theta_qseries_regularized(arg.jet, q_order) * theta0_inv
                         / (cmath.pi * sinc_jet(arg.jet)))
            elif j == 1:
                ratio = ratio / arg.trig("cos")
            ratio = s_part * ratio
        elif j == 1:
            ratio = ratio * 2.0
        for _ in range(exponent):
            acc = acc * ratio
    return acc


def twist_oracle_by_rungs(factor, bundle, t, q_order, gens, cap):
    """:func:`ellrig.characters.ch_twist_oracle`, each rung made by
    ``_power_op`` from its own q-monomial."""
    family, j = ROLES[TwistFactor(factor)]
    q_order = QExponent.of(q_order)
    if q_order > ORACLE_MAX_ORDER:
        raise CapacityError("q^(%s) is above the oracle's limit" % q_order)
    acc = QSeries({qexp(0): ChernPoly.one(gens, cap)}, q_order)
    if family == "delta":
        halves = _root_exponentials(bundle, gens, cap, cmath.pi * 1j, t / 2)
        spinor = ChernPoly.one(gens, cap)
        for plus, minus in zip(halves[::2], halves[1::2]):
            spinor = spinor * (minus * (plus * plus + 1.0))
        return acc * spinor
    tilde = bundle.tilde()
    e_roots = _root_exponentials(tilde, gens, cap, TWO_PI_I, t)

    def power(op, roots, exponent, sign=1.0):
        return _power_op(tilde, op, QSeries.monomial(exponent, sign, q_order),
                         gens, cap, roots)

    if family == "tangent":
        sym_roots = _signed_roots("sym", e_roots)
        for n in range(1, q_order.eighths // 8 + 1):
            acc = acc * power("sym", sym_roots, qexp(n))
    elif j == 1:
        acc = acc * ch_delta(bundle.fibers(), t, gens, cap)
    if j == 1:
        rungs = [(qexp(n), 1.0) for n in range(1, q_order.eighths // 8 + 1)]
    else:
        # the half-integer rungs q^{n - 1/2} below the order
        rungs = [(QExponent(e), -1.0 if j == 2 else 1.0) for e in range(4, q_order, 8)]
    for exponent, sign in rungs:
        acc = acc * power("lambda", e_roots, exponent, sign)
    return acc
