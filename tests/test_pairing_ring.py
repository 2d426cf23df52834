"""The pairing ring of a fixed component.

Each ComponentContext builds its integrand in the quotient of the cap ring
that keeps only the monomials its intersection functional can read
(Generators.pairing_ring).  Every value the engine reports must be the one
the full cap ring gives, repr for repr, and a silent fallback to the cap
ring must show.
"""

import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellrig.characters import ROLES, OddMapData, TwistSpec, odd_ch_Q
from ellrig.errors import EllrigError, RingMismatchError
from ellrig.lefschetz import (
    FixedComponentData,
    FixedPointData,
    _anomaly_applied_eval,
    format_monomial,
    lefschetz_eval,
    load_document,
    modular_residual,
)
from ellrig.polynomial import Generators
from ellrig.theta import TauPoint

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
DEMOS = ("four_sphere", "mixed_components", "odd_live", "odd_rigid")


def load(name):
    return load_document(os.path.join(ROOT, "demos", "data", name + ".json"))


def cap_ring_reference(data):
    """The same document with every context over the full cap ring."""
    ref = FixedPointData(data.components, data.k, data.parity, data.odd_map)
    for ctx in ref.contexts:
        ctx.gens = Generators(ctx.gens.names, ctx.gens.weights, ctx.gens.odd)
    return ref


def outcome(compute):
    """repr of the value, or the class and message of the error raised.
    Overflow counts as an outcome too: the anomaly multiplier of large
    fiber rotations overflows in either ring alike."""
    try:
        return repr(compute())
    except (EllrigError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def test_demo_ring_sizes():
    sizes = [len(ctx.gens.kept) for name in DEMOS for ctx in load(name)[0].contexts]
    assert sizes == [1, 1, 1, 8, 8, 6]


def test_demo_kept_sets():
    data, _ = load("odd_rigid")
    gens = data.contexts[0].gens
    kept = {format_monomial(gens, m) for m in gens.kept}
    # T7 is the only key with a nonzero value
    assert kept == {"1", "x1", "x2", "T1", "T5", "T7"}


@pytest.mark.parametrize("name", DEMOS)
def test_demo_values_match_the_cap_ring(name):
    data, twist = load(name)
    ref = cap_ring_reference(data)
    tau = TauPoint(0.3 + 0.8j)
    for t in (0.07 + 0.19j, -0.31 + 0.05j, 0.0):
        assert outcome(lambda: lefschetz_eval(data, twist, t, tau)) == outcome(
            lambda: lefschetz_eval(ref, twist, t, tau))


def test_odd_characters_are_staged_per_ring():
    """odd_ch_Q's stage key holds the declaration, so the pairing ring and
    the cap ring over the same names get values of their own."""
    data, _ = load("odd_rigid")
    pairing = data.contexts[0].gens
    full = Generators(pairing.names, pairing.weights, pairing.odd)
    tau = TauPoint(0.2 + 0.9j)
    odd_map = data.odd_map
    a = odd_ch_Q(3, odd_map, tau, cap=7, gens=pairing)
    b = odd_ch_Q(3, odd_map, tau, cap=7, gens=full)
    assert a.gens == pairing and b.gens == full
    assert a.terms == {m: c for m, c in b.terms.items() if m in pairing.kept}
    with pytest.raises(RingMismatchError):
        a + b


# ---------------------------------------------------------------- generated


ODD_CAP_SYMBOLS = {3: 2, 4: 2, 5: 2, 6: 1}
EVEN_CAP_SYMBOLS = {0: 4, 1: 4, 2: 4, 3: 3, 4: 3, 5: 2, 6: 2}
VALUES = st.sampled_from(("0", "1", "-1", "1/2", "-3/4", "2"))
# 0 and 1/2 put rotated factors on theta and sine zeros
TS = st.sampled_from((0.07 + 0.19j, -0.21 + 0.13j, 0.33 - 0.08j, 0.0, 0.5))
TAUS = st.builds(complex, st.floats(-0.4, 0.4), st.floats(0.75, 1.2))
EVEN_FACTORS = [f for f, (family, _) in ROLES.items()
                if family in ("tangent", "fiber", "delta")]
ODD_FACTORS = [f for f, (family, _) in ROLES.items() if family == "odd"]
CLASS_FACTORS = [f for f, (family, _) in ROLES.items() if family in ("phi0", "phi")]
PSI_FACTORS = [f for f, (family, _) in ROLES.items() if family == "psi"]


@st.composite
def functional_key(draw, even, odd_weights, cap):
    """A monomial of weighted degree cap with at most one odd generator, as
    a document key, or None when the symbols cannot reach the degree."""
    powers = {}
    rest = cap
    odd = [n for n, w in odd_weights.items() if w <= cap]
    if odd and draw(st.booleans()):
        name = draw(st.sampled_from(odd))
        powers[name] = 1
        rest -= odd_weights[name]
    if rest and not even:
        return None
    for _ in range(rest):
        s = draw(st.sampled_from(even))
        powers[s] = powers.get(s, 0) + 1
    if not powers:
        return "1"
    return " ".join(s if p == 1 else "%s^%d" % (s, p) for s, p in powers.items())


@st.composite
def components(draw, index, odd_map):
    cap = draw(st.integers(3, 6) if odd_map else st.integers(0, 6))
    room = (ODD_CAP_SYMBOLS if odd_map else EVEN_CAP_SYMBOLS)[cap]
    n = draw(st.integers(min(1, cap), room))
    kinds = draw(st.lists(st.sampled_from(("tangent", "normal", "fiber")),
                          min_size=n, max_size=n))
    names = ["c%d_%d" % (index, i) for i in range(n)]
    tangent = tuple(s for s, k in zip(names, kinds) if k == "tangent")
    rotation = st.sampled_from((-3, -2, -1, 1, 2, 3))
    normal = tuple((s, draw(rotation)) for s, k in zip(names, kinds) if k == "normal")
    fibers = []
    for s, k in zip(names, kinds):
        if k == "fiber":
            # a repeated fiber symbol with opposite rotations meets the
            # linear anomaly condition
            n_fiber = draw(rotation)
            fibers.append((s, n_fiber))
            if draw(st.booleans()):
                fibers.append((s, -n_fiber))
    odd_weights = {}
    if odd_map:
        odd_weights = {t: int(t[1:]) for t in odd_map.trace_generator_names(cap)}
    keys = draw(st.lists(functional_key(names, odd_weights, cap), min_size=1, max_size=3))
    intersection = {k: draw(VALUES) for k in keys if k is not None}
    return FixedComponentData("comp%d" % index, tangent_roots=tangent, normal=normal,
                              v_fibers=tuple(fibers), intersection=intersection, cap=cap)


@st.composite
def documents(draw):
    odd = draw(st.booleans())
    odd_map = OddMapData(draw(st.sampled_from((2, 4, 8))), draw(st.booleans())) if odd else None
    comps = tuple(draw(components(i, odd_map)) for i in range(draw(st.integers(1, 2))))
    data = FixedPointData(comps, k=draw(st.integers(1, 3)),
                          parity="odd" if odd else "even", odd_map=odd_map)
    lead = draw(st.sampled_from([None] + CLASS_FACTORS + (PSI_FACTORS if odd else [])))
    others = draw(st.lists(st.sampled_from(EVEN_FACTORS + (ODD_FACTORS if odd else [])),
                           max_size=2))
    factors = ([lead] if lead else []) + others
    exponents = [1 if f is lead else draw(st.integers(1, 2)) for f in factors]
    return data, TwistSpec(tuple(factors), tuple(exponents))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=documents(), t=TS, tau=TAUS)
def test_generated_documents_match_the_cap_ring(doc, t, tau):
    data, twist = doc
    ref = cap_ring_reference(data)
    for ctx, full in zip(data.contexts, ref.contexts):
        assert full.gens.kept is None
        assert all(full.gens.keeps(m, ctx.comp.cap) for m in ctx.gens.kept)
    # one TauPoint for both sides: the staged values must keep the rings apart
    tau = TauPoint(tau)
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

