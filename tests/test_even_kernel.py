"""Every even factor from univariate series against the ring-product route.

``lefschetz._even_kernel`` builds the even part of each integrand, C
sum_slot prod_symbol S_slot,symbol(x), from one series per pair or fiber
and factor, with no ring product; an odd factor pairs with it.  Each
integrand must match the ring products of ``ladder_reference`` within 1e-13
of its size, at t, at t + 2 tau and at the S and T images of (t, tau), with
the component's plan and with the full plan (``test_even_plan``): on every
shipped document, under its own twist and under twists with every even
factor, with and without Phi0, and on the generated documents.  The
comparison runs on the monomials the plan makes exact, those whose part in
the pair and fiber symbols is a plan monomial.  A pole must raise on both
routes alike.

The size is the largest coefficient of the reference assembled over moduli
(``ladder_reference.Sized``), the size of the terms before they cancel.
"""

import os

import pytest
from hypothesis import example, given, settings

from ellrig.lefschetz import (
    FixedComponentData,
    FixedPointData,
    _even_kernel,
    assemble_integrand,
    load_document,
)
from ellrig.theta import TauPoint
from ellrig.twist import ROLES, OddMapData, TwistSpec
from generated_documents import TAUS, TS, documents
from ladder_reference import exponent_terms, integrand_by_ring_products
from test_even_plan import full_plan_reference
from test_phi0_kernel import PATHS, arguments, outcome

TOL = 1e-13
EVEN_TWISTS = (
    TwistSpec(("Theta1",)),
    TwistSpec(("Theta2", "Q3V", "DeltaV"), (1, 2, 1)),
    TwistSpec(("Q1V", "Q2V", "Theta3"), (2, 1, 2)),
    TwistSpec(("Phi0", "Theta1", "DeltaV"), (1, 2, 2)),
)


def plan_exact(ctx, monomials):
    """The ``monomials`` whose part in the plan's symbols is a plan
    monomial: a product of the kernel with odd factors is exact there."""
    plan = ctx.even_plan()
    positions = [ctx.names.index(name) for name in plan.tops]
    wanted = {exps for _, exps in plan.monomials}
    return {m for m in monomials if tuple(m[i] for i in positions) in wanted}


def check(ctx, twist, t, tau, odd_map):
    new = outcome(lambda: assemble_integrand(ctx, twist, t, tau))
    ref = outcome(lambda: integrand_by_ring_products(ctx, twist, t, tau, odd_map))
    if isinstance(new, type) or isinstance(ref, type):
        assert new is ref
        return
    exact = plan_exact(ctx, set(new) | set(exponent_terms(ref.value)))
    size = max((abs(ref.size.coefficient(m)) for m in exact), default=0.0)
    assert max((abs(new.get(m, 0) - ref.value.coefficient(m)) for m in exact),
               default=0.0) <= TOL * size


def test_the_documents_cover_every_route():
    names = [os.path.basename(p) for p in PATHS]
    assert len(names) == 8 and "ladders_without_phi0.json" in names
    data, twist = load_document(PATHS[names.index("ladders_without_phi0.json")])
    assert all(ctx.comp.v_fibers and ctx.comp.normal for ctx in data.contexts)
    assert data.contexts[0].comp.tangent_roots
    assert {str(f) for f in twist.factors} == {"Theta2", "Q3V", "DeltaV"}


@pytest.mark.parametrize("path", PATHS, ids=os.path.basename)
@pytest.mark.parametrize("tau", [0.3 + 0.8j, -0.37 + 1.1j])
def test_shipped_documents_match_the_ring_products(path, tau):
    data, twist = load_document(path)
    tau = TauPoint(tau)
    twists = (twist,) + EVEN_TWISTS
    for ctx, full in zip(data.contexts, full_plan_reference(data).contexts):
        for t in (0.07 + 0.19j, -0.31 + 0.05j, 0.0, 0.25, 0.5):
            for t_arg, tau_arg in arguments(t, tau):
                for tw in twists:
                    check(ctx, tw, t_arg, tau_arg, data.odd_map)
                    check(full, tw, t_arg, tau_arg, data.odd_map)


def odd_document(normal, odd_map, keys):
    """One component of cap 3 whose fiber symbol c0_0 has rotations -3 and 3."""
    comp = FixedComponentData("comp0", normal=normal, v_fibers=(("c0_0", -3), ("c0_0", 3)),
                              intersection=keys, cap=3)
    return FixedPointData((comp,), k=1, parity="odd", odd_map=odd_map)


# Q1E is 0 for N = 2 with the degree-3 class declared zero, so the integrand
# is 0 even at t + 2 tau, where the kernel alone overflows; a normal piece on
# a pole still raises.  Two odd factors, or one squared, pair to 0.
ZERO_ODD = OddMapData(2, True)
ZERO_KEYS = {"c0_0^2 T1": "1", "c0_0^3": "-3/4"}
PSI1_Q1V_THETA1 = TwistSpec(("Psi1", "Q1V", "Theta1"), (1, 2, 1))
LIVE_ODD = odd_document((), OddMapData(8), {"T3": "1", "c0_0^3": "1/2"})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(doc=documents(), t=TS, tau=TAUS)
@example(doc=(odd_document((), ZERO_ODD, ZERO_KEYS), PSI1_Q1V_THETA1), t=0.07 + 0.19j, tau=1j)
@example(doc=(odd_document((("c0_1", 2),), ZERO_ODD, ZERO_KEYS), PSI1_Q1V_THETA1), t=0.5, tau=1j)
@example(doc=(LIVE_ODD, TwistSpec(("Psi1", "Q2E"))), t=0.07 + 0.19j, tau=0.3 + 0.8j)
@example(doc=(LIVE_ODD, TwistSpec(("Phi0", "Q1E"), (1, 2))), t=0.07 + 0.19j, tau=0.3 + 0.8j)
def test_generated_documents_match_the_ring_products(doc, t, tau):
    data, twist = doc
    tau = TauPoint(tau)
    for ctx, full in zip(data.contexts, full_plan_reference(data).contexts):
        for t_arg, tau_arg in arguments(t, tau):
            check(ctx, twist, t_arg, tau_arg, data.odd_map)
            check(full, twist, t_arg, tau_arg, data.odd_map)


def test_the_kernel_skips_the_odd_factors():
    # Psi_j and Q_jE bring odd factors; on a component with fibers the
    # kernel reads only the even factors among those it is given
    comp = FixedComponentData("c", normal=(("x1", 1),), v_fibers=(("z1", 2), ("z2", -1)),
                              intersection={"x1 z1": 1, "T1 x1": 1}, cap=2)
    data = FixedPointData((comp,), k=1, parity="odd", odd_map=OddMapData(8, True))
    ctx, t, tau = data.contexts[0], 0.07 + 0.19j, TauPoint(0.3 + 0.8j)
    for twist in (TwistSpec(("Psi1",)), TwistSpec(("Q2E", "Q3V"), (2, 1))):
        factors = twist.expanded()
        even = [(f, e) for f, e in factors if ROLES[f][0] != "odd"]
        assert len(even) < len(factors)
        assert repr(_even_kernel(ctx, factors, t, tau)) == repr(_even_kernel(ctx, even, t, tau))
