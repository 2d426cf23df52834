"""The Phi0 kernel assembled by ring products, as an independent cross-check.

This is the assembly the engine used before it built the kernel from
univariate pair series: every theta jet goes through ``theta_eval`` (the
tangent denominators through ``theta_eval_regularized``) into a
``ChernPoly``, and the kernel

    C prod_p theta'(0)/theta(v_p) sum_k prod_p theta_k(v_p)/theta_k(0)

is multiplied out in the component's ring, with one ``inverse`` per
denominator.  It shares no code with ``lefschetz._even_kernel`` beyond the
theta values themselves.

The two routes round differently, and at large |Im v| (t + 2 tau with
rotation 3) the kernel's terms cancel to a billionth of their size before
they sum to a coefficient.  :func:`phi0_kernel_magnitude` measures that
size: the scale roundoff in either route is relative to.
"""

import cmath

from ellrig.errors import SingularFactorError
from ellrig.polynomial import ChernPoly
from ellrig.theta import (
    THETA_KINDS,
    ThetaKind,
    theta_eval,
    theta_eval_regularized,
    theta_jet_coefficients,
    theta_prime_zero,
    theta_zero_location,
)
from ladder_reference import ring_of


def phi0_kernel_by_ring_products(ctx, t, tau):
    comp, gens, cap = ctx.comp, ring_of(ctx), ctx.comp.cap

    def lift(value):
        # low caps truncate jets to scalars; keep everything in the ring
        return value if isinstance(value, ChernPoly) else ChernPoly.scalar(gens, cap, value)

    tprime = theta_prime_zero(tau)
    zero_vals = {kind: theta_eval(kind, 0.0, tau) for kind in THETA_KINDS if not kind.odd}
    n_pairs = len(comp.tangent_roots) + len(comp.normal)
    out = ChernPoly.one(gens, cap) * (2.0 ** n_pairs * cmath.pi ** (-len(comp.normal)))
    kind_products = {kind: ChernPoly.one(gens, cap) for kind in zero_vals}
    pairs = [(y, None) for y in comp.tangent_roots] + list(comp.normal)
    for x, m in pairs:
        jet = ChernPoly.generator(gens, cap, x)
        if m is None:
            den, arg = theta_eval_regularized(jet, tau), jet
        else:
            if theta_zero_location(ThetaKind.THETA, m * t, tau) is not None:
                raise SingularFactorError("theta vanishes at theta(%s + %d t)" % (x, m),
                                          component=comp.name, t=t)
            arg = jet + m * t
            den = lift(theta_eval(ThetaKind.THETA, arg, tau))
        out = out * (den.inverse() * tprime)
        for kind in kind_products:
            kind_products[kind] = kind_products[kind] * (
                lift(theta_eval(kind, arg, tau)) / zero_vals[kind])
    total = ChernPoly.zero(gens, cap)
    for product in kind_products.values():
        total = total + product
    return out * total


def _abs_inverse(a):
    """The series 1/a with every term of its recursion taken by magnitude."""
    out = [1 / abs(a[0])]
    for j in range(1, len(a)):
        out.append(sum(abs(a[i]) * out[j - i] for i in range(1, j + 1)) * out[0])
    return out


def _abs_product(a, b):
    return [sum(abs(a[i]) * abs(b[j - i]) for i in range(j + 1)) for j in range(len(a))]


def phi0_kernel_magnitude(ctx, t, tau, monomials):
    """The largest coefficient on ``monomials`` of the kernel assembled by
    magnitudes: the series of each |g_k,p| from the moduli of the theta
    jets, with every sum of the series inverse and products taken over
    moduli, multiplied out per symbol, and the kinds summed by modulus.
    It bounds every partial sum either route forms, so a roundoff of the
    routes is a multiple of it and the unit roundoff."""
    comp, gens, cap = ctx.comp, ring_of(ctx), ctx.comp.cap
    even = [kind for kind in THETA_KINDS if not kind.odd]
    tprime = abs(theta_prime_zero(tau))
    ratios = [tprime / abs(theta_eval(kind, 0.0, tau)) for kind in even]
    series = {}
    pairs = [(y, None) for y in comp.tangent_roots] + list(comp.normal)
    for x, m in pairs:
        if m is None:
            centre, den = 0.0, theta_jet_coefficients(ThetaKind.THETA, 0.0, tau, cap + 1)[1:]
        else:
            centre = m * t
            den = theta_jet_coefficients(ThetaKind.THETA, centre, tau, cap)
        inverse = _abs_inverse(den)
        g = [[r * c for c in _abs_product(theta_jet_coefficients(kind, centre, tau, cap), inverse)]
             for kind, r in zip(even, ratios)]
        series[x] = g if x not in series else [_abs_product(a, b) for a, b in zip(series[x], g)]
    const = 2.0 ** len(pairs) * cmath.pi ** (-len(comp.normal))
    top = 0.0
    for mono in monomials:
        total = 0.0
        for k in range(len(even)):
            term = const
            for x, g in series.items():
                term *= g[k][mono[gens.index(x)]]
            total += term
        top = max(top, total)
    return top
