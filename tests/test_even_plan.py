"""The even plan of a fixed component: which monomials its kernel computes.

Each ComponentContext builds its even kernel only on 1, the root symbols and
the divisors of the functional keys with a nonzero value (``_EvenPlan``);
the odd factor and the anomaly exponential reach the keys only through it.
Every value the engine reports must be the one a full plan gives, repr for
repr and errors included, where the full plan's keys are every root-symbol
monomial of top degree, so that its divisors are every monomial of the cap
ring in the root symbols.
"""

import glob
import itertools
import os
import warnings

import pytest
from hypothesis import given, settings

from ellrig.errors import EllrigError
from ellrig.lefschetz import (
    FixedPointData,
    _anomaly_applied_eval,
    _EvenPlan,
    lefschetz_eval,
    load_document,
    modular_residual,
)
from ellrig.polynomial import format_monomial
from ellrig.theta import TauPoint
from generated_documents import TAUS, TS, documents
from ladder_reference import ring_of

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
PATHS = sorted(glob.glob(os.path.join(ROOT, "demos", "data", "*.json"))
               + glob.glob(os.path.join(ROOT, "tests", "data", "*.json")))
DEMOS = ("four_sphere", "mixed_components", "odd_live", "odd_rigid")


def load(name):
    return load_document(os.path.join(ROOT, "demos", "data", name + ".json"))


def full_plan(ctx):
    """The plan of ``ctx`` for every root-symbol monomial of degree cap."""
    names, cap = ctx.names, ctx.comp.cap
    roots = [names.index(name) for name in ctx.comp.even_symbols()]
    keys = []
    for chosen in itertools.combinations_with_replacement(roots, cap):
        key = [0] * len(names)
        for i in chosen:
            key[i] += 1
        keys.append(tuple(key))
    return _EvenPlan(ctx.comp, names, keys)


def full_plan_reference(data):
    """The same document with every context on its full plan."""
    ref = FixedPointData(data.components, data.k, data.parity, data.odd_map)
    for ctx in ref.contexts:
        ctx._plan = full_plan(ctx)
    return ref


def outcome(compute):
    """repr of the value, or the class and message of the error raised.
    Overflow counts as an outcome too: the anomaly multiplier of large
    fiber rotations overflows with either plan alike."""
    try:
        return repr(compute())
    except (EllrigError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def assert_plans_agree(data, twist, t, tau):
    ref = full_plan_reference(data)
    for ctx, full in zip(data.contexts, ref.contexts):
        plan, whole = ctx.even_plan(), full.even_plan()
        gens, cap = ring_of(ctx), ctx.comp.cap
        # the full plan holds every cap-ring monomial in the pair and fiber
        # symbols, and the plan is a subsequence of it
        n = len(whole.tops)
        assert len(whole.monomials) == len(
            [e for e in itertools.product(range(cap + 1), repeat=n) if sum(e) <= cap])
        assert all(gens.key(m, cap) is not None for m, _ in whole.monomials)
        planned = set(plan.monomials)
        assert plan.monomials == tuple(entry for entry in whole.monomials if entry in planned)
    checks = (
        lambda d: lefschetz_eval(d, twist, t, tau),
        lambda d: _anomaly_applied_eval(d, twist, t, tau, 2),
        lambda d: modular_residual(d, twist, t, tau, "S"),
        lambda d: modular_residual(d, twist, t, tau, "T"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for check in checks:
            assert outcome(lambda: check(data)) == outcome(lambda: check(ref))


def test_demo_plan_sizes():
    sizes = [len(ctx.even_plan().monomials) for name in DEMOS for ctx in load(name)[0].contexts]
    assert sizes == [1, 1, 1, 8, 6, 3]


def test_demo_plan_monomials():
    data, _ = load("odd_rigid")
    ctx = data.contexts[0]
    plan = ctx.even_plan()
    # T7 is the only key with a nonzero value: the kernel needs 1 and the
    # root symbols, and the odd generators are not the kernel's
    assert [format_monomial(ring_of(ctx), m) for m, _ in plan.monomials] == ["1", "x2", "x1"]
    assert plan.tops == {"x1": 1, "x2": 1}
    assert len(full_plan(ctx).monomials) == 36


@pytest.mark.parametrize("path", PATHS, ids=os.path.basename)
@pytest.mark.parametrize("tau", [0.3 + 0.8j, -0.37 + 1.1j])
def test_shipped_documents_match_the_full_plan(path, tau):
    data, twist = load_document(path)
    tau = TauPoint(tau)
    for t in (0.07 + 0.19j, -0.31 + 0.05j, 0.0, 0.5):
        assert_plans_agree(data, twist, t, tau)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=documents(), t=TS, tau=TAUS)
def test_generated_documents_match_the_full_plan(doc, t, tau):
    data, twist = doc
    # one TauPoint for both sides: the staged values are shared
    assert_plans_agree(data, twist, t, TauPoint(tau))
