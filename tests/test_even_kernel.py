"""Every even factor from univariate series against the ring-product route.

``lefschetz._even_kernel`` builds the even part of each integrand, C
sum_slot prod_symbol S_slot,symbol(x), from one series per pair or fiber
and factor, with no ring product; the odd factors multiply it.  Each
integrand must match the ring products of ``ladder_reference`` within 1e-13
of its size, at t, at t + 2 tau and at the S and T images of (t, tau), in
the pairing ring and in the cap ring: on every shipped document, under its
own twist and under twists with every even factor, with and without Phi0,
and on the generated documents of the pairing-ring tests.  A pole must
raise on both routes alike.

The size is the largest coefficient of the reference assembled over moduli
(``ladder_reference.Sized``), the size of the terms before they cancel.
"""

import os

import pytest
from hypothesis import given, settings

from ellrig.characters import TwistSpec
from ellrig.lefschetz import assemble_integrand, load_document
from ellrig.theta import TauPoint
from ladder_reference import integrand_by_ring_products
from test_pairing_ring import TAUS, TS, cap_ring_reference, documents
from test_phi0_kernel import PATHS, arguments, outcome

TOL = 1e-13
EVEN_TWISTS = (
    TwistSpec(("Theta1",)),
    TwistSpec(("Theta2", "Q3V", "DeltaV"), (1, 2, 1)),
    TwistSpec(("Q1V", "Q2V", "Theta3"), (2, 1, 2)),
    TwistSpec(("Phi0", "Theta1", "DeltaV"), (1, 2, 2)),
)


def check(ctx, twist, t, tau, odd_map):
    new = outcome(lambda: assemble_integrand(ctx, twist, t, tau, odd_map))
    ref = outcome(lambda: integrand_by_ring_products(ctx, twist, t, tau, odd_map))
    if isinstance(new, type) or isinstance(ref, type):
        assert new is ref
        return
    assert ctx.gens.kept is None or set(new.terms) <= ctx.gens.kept
    size = ref.size.max_abs_coeff()
    assert (new - ref.value).max_abs_coeff() <= TOL * size


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
    for ctx, full in zip(data.contexts, cap_ring_reference(data).contexts):
        for t in (0.07 + 0.19j, -0.31 + 0.05j, 0.0, 0.25, 0.5):
            for t_arg, tau_arg in arguments(t, tau):
                for tw in twists:
                    check(ctx, tw, t_arg, tau_arg, data.odd_map)
                    check(full, tw, t_arg, tau_arg, data.odd_map)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(doc=documents(), t=TS, tau=TAUS)
def test_generated_documents_match_the_ring_products(doc, t, tau):
    data, twist = doc
    tau = TauPoint(tau)
    for ctx, full in zip(data.contexts, cap_ring_reference(data).contexts):
        for t_arg, tau_arg in arguments(t, tau):
            check(ctx, twist, t_arg, tau_arg, data.odd_map)
            check(full, twist, t_arg, tau_arg, data.odd_map)
