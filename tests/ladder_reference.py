"""Every even factor of an integrand assembled by ring products, as an
independent cross-check.

This is the assembly the engine used before it built every even factor from
univariate series (``lefschetz._even_kernel``): the Phi0 kernel multiplied
out as ``phi0_reference`` does, the bare kernel from sinc and sin jets with
one ``inverse`` each, and the fiber ladders, DeltaV and the tangent ladders
as numeric theta-quotient characters, each a ChernPoly jet from
``theta_poly`` multiplied out in the component's ring, an exponent by
repeated products.  It shares no code with the engine's kernel beyond the
theta values themselves.  It carries the two fixes the engine has: a
tangent ladder on a zero of theta off the real integers is a pole, and at a
real half-integer w, theta1(w)/cos(pi w) is taken as theta(x)/sin(pi x).

Every piece is a polynomial in the ring :func:`ring_of` declares over a
component context's monomial index, whose exponent tuples also key the
engine's plain dicts of terms.

Each piece is :class:`Sized`: the polynomial and its size, the same
assembly over the moduli of every jet, with each inverse expanded by moduli
and every product and sum taken over moduli.  The size bounds every partial
sum either route forms, so a roundoff of the routes is a multiple of it and
the unit roundoff.
"""

import cmath
import functools

from ellrig.characters import _Argument, sinc_jet, theta_eval_regularized, theta_poly
from ellrig.errors import SingularFactorError
from ellrig.polynomial import ChernPoly, Generators
from ellrig.theta import (
    THETA_KINDS,
    ThetaKind,
    theta_eval,
    theta_prime_zero,
    theta_zero_location,
)
from ellrig.twist import ROLES, TwistFactor, generator_weight, odd_ch_Q


@functools.lru_cache(maxsize=None)
def ring_of(ctx):
    """The cap ring over a ComponentContext's monomial index ``ctx.names``:
    a root symbol weighs 1 and is even, an odd trace generator T_w weighs w
    and is odd.  One declaration per context, so products over it share
    their tables."""
    roots = ctx.comp.even_symbols()
    return Generators(ctx.names, [1 if n in roots else generator_weight(n) for n in ctx.names],
                      [n not in roots for n in ctx.names])


def _moduli(poly):
    return ChernPoly(poly.gens, poly.cap, {m: abs(c) for m, c in poly.terms.items()})


class Sized:
    """A polynomial with its size (module docstring)."""

    def __init__(self, value, size=None):
        self.value = value
        self.size = _moduli(value) if size is None else size

    def __mul__(self, other):
        if isinstance(other, Sized):
            return Sized(self.value * other.value, self.size * other.size)
        return Sized(self.value * other, self.size * abs(other))

    def __add__(self, other):
        return Sized(self.value + other.value, self.size + other.size)

    def inverse(self):
        """1/(c + n) = (1/c) sum_k (-n/c)^k; its size sums (|n|/|c|)^k."""
        value = self.value.inverse()
        c = abs(self.size.constant())
        n = self.size.nilpotent_part() * (1.0 / c)
        size = power = ChernPoly.one(n.gens, n.cap)
        for _ in range(n.cap):
            power = power * n
            size = size + power
        return Sized(value, size * (1.0 / c))


def _jet(gens, cap, value):
    # low caps truncate jets to scalars; keep everything in the ring
    return Sized(value if isinstance(value, ChernPoly) else ChernPoly.scalar(gens, cap, value))


def _pole(comp_name, symbol, rotation, t, what):
    factor = "theta(%s + %d t)" % (symbol, rotation)
    raise SingularFactorError("%s vanishes at %s in component %r" % (what, factor, comp_name),
                              component=comp_name, factor=factor, t=t)


def _phi0_kernel(ctx, t, tau):
    comp, gens, cap = ctx.comp, ring_of(ctx), ctx.comp.cap
    tprime = theta_prime_zero(tau)
    zero_vals = {kind: theta_eval(kind, 0.0, tau) for kind in THETA_KINDS if not kind.odd}
    n_pairs = len(comp.tangent_roots) + len(comp.normal)
    out = _jet(gens, cap, 2.0 ** n_pairs * cmath.pi ** (-len(comp.normal)))
    kind_products = {kind: _jet(gens, cap, 1.0) for kind in zero_vals}
    for x, m in [(y, None) for y in comp.tangent_roots] + list(comp.normal):
        jet = ChernPoly.generator(gens, cap, x)
        if m is None:
            den, arg = _jet(gens, cap, theta_eval_regularized(jet, tau)), jet
        else:
            if theta_zero_location(ThetaKind.THETA, m * t, tau) is not None:
                _pole(comp.name, x, m, t, "theta")
            arg = jet + m * t
            den = _jet(gens, cap, theta_poly(ThetaKind.THETA, arg, tau))
        out = out * (den.inverse() * tprime)
        for kind in kind_products:
            kind_products[kind] = kind_products[kind] * (
                _jet(gens, cap, theta_poly(kind, arg, tau)) * (1 / zero_vals[kind]))
    total = None
    for product in kind_products.values():
        total = product if total is None else total + product
    return out * total


def _bare_kernel(ctx, t):
    comp, gens, cap = ctx.comp, ring_of(ctx), ctx.comp.cap
    out = _jet(gens, cap, 1.0)
    for y in comp.tangent_roots:
        out = out * _jet(gens, cap, sinc_jet(ChernPoly.generator(gens, cap, y))).inverse()
    for x, m in comp.normal:
        centre = complex(m * t)
        if abs(centre - round(centre.real)) < 1e-12:
            raise SingularFactorError("sin kernel vanishes at %s + %d t" % (x, m),
                                      component=comp.name, factor="sin(pi(%s + %d t))" % (x, m),
                                      t=t)
        sin = _Argument(centre, ChernPoly.generator(gens, cap, x)).trig("sin")
        out = out * _jet(gens, cap, sin).inverse()
    return out


def ladder_by_ring_products(factor, fibers, t, tau, gens, cap, exponent=1, comp_name=None):
    """The numeric character of a fiber ladder, DeltaV or a tangent ladder
    over (symbol, rotation) pairs, as a :class:`Sized` polynomial."""
    family, j = ROLES[factor]
    acc = _jet(gens, cap, 1.0)
    if family == "delta":
        spinor = _jet(gens, cap, 1.0)
        for name, rot in fibers:
            cos = _Argument(rot * t, ChernPoly.generator(gens, cap, name)).trig("cos")
            spinor = spinor * _jet(gens, cap, 2 * cos)
        for _ in range(exponent):
            acc = acc * spinor
        return acc
    kind = THETA_KINDS[j]
    theta0 = theta_eval(kind, 0.0, tau)
    tprime = theta_prime_zero(tau)
    for name, rot in fibers:
        centre = rot * t
        c = complex(centre)
        jet = ChernPoly.generator(gens, cap, name)
        if family == "tangent" and j == 1 and c.imag == 0 and (c.real + 0.5).is_integer():
            # theta1(w)/cos(pi w) = theta(w + 1/2)/sin(pi(w + 1/2)): theta(x)/sin(pi x)
            ratio = (_jet(gens, cap, theta_eval_regularized(jet, tau))
                     * _jet(gens, cap, sinc_jet(jet)).inverse() * (1 / (cmath.pi * theta0)))
        else:
            ratio = _jet(gens, cap, theta_poly(kind, jet + centre, tau)) * (1 / theta0)
            if family == "tangent" and j == 1:
                ratio = ratio * _jet(gens, cap, _Argument(centre, jet).trig("cos")).inverse()
        if family == "tangent":
            if c.imag == 0 and c.real.is_integer():
                s_part = (_jet(gens, cap, sinc_jet(jet)) * tprime
                          * _jet(gens, cap, theta_eval_regularized(jet, tau)).inverse())
            else:
                if theta_zero_location(ThetaKind.THETA, c, tau) is not None:
                    _pole(comp_name, name, rot, t, "the tangent ladder's theta")
                s_part = (_jet(gens, cap, _Argument(centre, jet).trig("sin"))
                          * _jet(gens, cap, theta_poly(ThetaKind.THETA, jet + centre, tau)).inverse()
                          * (tprime / cmath.pi))
            ratio = s_part * ratio
        elif j == 1:
            ratio = ratio * 2.0
        for _ in range(exponent):
            acc = acc * ratio
    return acc


def integrand_by_ring_products(ctx, twist, t, tau, odd_map=None):
    """The integrand of one component as a :class:`Sized` polynomial: the
    Phi0 kernel or the bare one, times each factor of the expanded twist;
    an odd factor is embedded by generator name into the component's ring."""
    comp, gens, cap = ctx.comp, ring_of(ctx), ctx.comp.cap
    factors = twist.expanded()
    if any(f is TwistFactor.PHI0 for f, _ in factors):
        out = _phi0_kernel(ctx, t, tau)
    else:
        out = _bare_kernel(ctx, t)
    pairs = [(y, 0) for y in comp.tangent_roots] + list(comp.normal)
    for factor, exponent in factors:
        family, j = ROLES[factor]
        if family in ("fiber", "delta") and comp.v_fibers:
            out = out * ladder_by_ring_products(factor, comp.v_fibers, t, tau, gens, cap,
                                                exponent, comp.name)
        elif family == "tangent":
            out = out * ladder_by_ring_products(factor, pairs, t, tau, gens, cap, exponent,
                                                comp.name)
        elif family == "odd":
            piece = odd_ch_Q(j, odd_map, tau, cap=cap)
            embedded = ChernPoly(gens, cap, {
                tuple(int(n == name) for n in gens.names): c for name, c in piece.items()})
            out = out * _jet(gens, cap, embedded ** exponent)
    return out
