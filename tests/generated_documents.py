"""Generated fixed-point documents for the property tests of the engine.

:func:`documents` draws a document of one or two components, even or odd,
with tangent roots, rotated normal pieces and fibers (a repeated fiber
symbol may carry opposite rotations), a functional of one to three keys of
top degree, and a twist of a Phi0-class lead and up to two other factors.
``TS`` samples t, 0 and 1/2 among them, which put rotated factors on theta
and sine zeros; ``TAUS`` samples tau near i.
"""

from hypothesis import strategies as st

from ellrig.lefschetz import FixedComponentData, FixedPointData
from ellrig.twist import ROLES, OddMapData, TwistSpec

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
