"""The Phi0 kernel from univariate pair series against the ring-product route.

``lefschetz._even_kernel`` of the factor Phi0 alone builds C sum_k prod_p
g_k,p(x_p) from one series per pair and kind, with no ring product.  Each kernel must match the ring
products of ``phi0_reference`` within 1e-13 of the component's magnitude,
at t, at t + 2 tau and at the S and T images of (t, tau), on every shipped
document and on the generated documents, on the monomials of the
component's plan and of the full plan (``test_even_plan``).  A pole must
raise on both routes alike, and on the shipped documents the kernel of the
component's plan must be the full plan's, bit for bit and in order, on the
monomials it computes.

The magnitude is the largest coefficient of the kernel assembled by moduli
(``phi0_kernel_magnitude``), the size of the terms before they cancel.
Where nothing cancels it is the largest coefficient itself; at t + 2 tau
with rotation 3 the terms are up to 6.5e9 times the coefficients they sum
to, and both routes carry a roundoff of that size.
"""

import glob
import os
import warnings

import pytest
from hypothesis import given, settings

from ellrig.errors import EllrigError
from ellrig.lefschetz import _check_poles, _even_kernel, load_document
from ellrig.theta import S_MATRIX, TauPoint, moebius_act
from ellrig.twist import TwistFactor
from generated_documents import TAUS, TS, documents
from phi0_reference import phi0_kernel_by_ring_products, phi0_kernel_magnitude
from test_even_plan import full_plan_reference

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
PATHS = sorted(glob.glob(os.path.join(ROOT, "demos", "data", "*.json"))
               + glob.glob(os.path.join(ROOT, "tests", "data", "*.json")))
TOL = 1e-13


def _phi0_kernel(ctx, t, tau):
    factors = ((TwistFactor.PHI0, 1),)
    _check_poles(ctx.comp, factors, t, tau)
    return _even_kernel(ctx, factors, t, tau)


def arguments(t, tau):
    """(t, tau), (t + 2 tau, tau) and the T and S images of (t, tau)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [(t, tau), (t + 2 * tau.value, tau), (t, tau.shifted(tau.value + 1.0)),
                moebius_act(S_MATRIX, t, tau)]


def outcome(compute):
    try:
        return compute()
    except (EllrigError, ArithmeticError) as exc:
        return type(exc)


def check(ctx, t, tau):
    new = outcome(lambda: _phi0_kernel(ctx, t, tau))
    ref = outcome(lambda: phi0_kernel_by_ring_products(ctx, t, tau))
    if isinstance(new, type) or isinstance(ref, type):
        assert new is ref
        return
    monomials = [m for m, _ in ctx.even_plan().monomials]
    assert set(new) <= set(monomials)
    error = max(abs(new.get(m, 0) - ref.coefficient(m)) for m in monomials)
    assert error <= TOL * phi0_kernel_magnitude(ctx, t, tau, monomials)


def test_the_documents_cover_shared_symbols():
    names = [os.path.basename(p) for p in PATHS]
    assert "shared_symbols.json" in names and len(names) == 8
    data, _ = load_document(os.path.join(ROOT, "tests", "data", "shared_symbols.json"))
    comp = data.components[0]
    assert set(comp.tangent_roots) & {s for s, _ in comp.normal}
    assert len({s for s, _ in data.components[1].normal}) < len(data.components[1].normal)


@pytest.mark.parametrize("path", PATHS, ids=os.path.basename)
@pytest.mark.parametrize("tau", [0.3 + 0.8j, -0.37 + 1.1j, 0.05 + 0.72j])
def test_shipped_documents_match_the_ring_products(path, tau):
    data, _ = load_document(path)
    tau = TauPoint(tau)
    for ctx, full in zip(data.contexts, full_plan_reference(data).contexts):
        for t in (0.07 + 0.19j, -0.31 + 0.05j, 0.23 - 0.11j, 0.0):
            for t_arg, tau_arg in arguments(t, tau):
                check(ctx, t_arg, tau_arg)
                check(full, t_arg, tau_arg)
                # the plan's kernel is the full plan's, bit for bit and in
                # order, on the monomials it computes
                planned = outcome(lambda: _phi0_kernel(ctx, t_arg, tau_arg))
                whole = outcome(lambda: _phi0_kernel(full, t_arg, tau_arg))
                if not isinstance(whole, type):
                    monomials = {m for m, _ in ctx.even_plan().monomials}
                    whole = [(m, c) for m, c in whole.items() if m in monomials]
                    planned = list(planned.items())
                assert repr(planned) == repr(whole)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(doc=documents(), t=TS, tau=TAUS)
def test_generated_documents_match_the_ring_products(doc, t, tau):
    data, _ = doc
    tau = TauPoint(tau)
    for ctx, full in zip(data.contexts, full_plan_reference(data).contexts):
        for t_arg, tau_arg in arguments(t, tau):
            check(ctx, t_arg, tau_arg)
            check(full, t_arg, tau_arg)
