"""The formal ladder characters reuse work within one expansion and keep
every bit of the routes that do not (tests/expansion_reference.py).

``ch_theta_twist`` makes a fiber's theta ratio once per rotation (and
generator weight and parity) and renames its generator for the other
fibers of that rotation; ``ch_twist_oracle`` runs ``_power_op`` once per
power op and sign and re-keys that series for each later rung.  Each
coefficient is compared by its ``repr``, so signed zeros count, and the
keys in their order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ellrig.characters import FormalBundle, ch_theta_twist, ch_twist_oracle
from ellrig.polynomial import ChernPoly, Generators
from ellrig.series import QSeries
from expansion_reference import theta_twist_by_fibers, twist_oracle_by_rungs
from product_reference import bits

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)

LADDERS = ("Q1V", "Q2V", "Q3V", "Theta1", "Theta2", "Theta3", "DeltaV")
FACTORS = st.sampled_from(LADDERS)
# on the real axis at 0, 1/2 and 1 (the integer and half-integer centres of
# the tangent ladders), and off it
T = st.one_of(st.sampled_from((0j, 0.5 + 0j, 1 + 0j)),
              st.builds(complex, st.floats(-0.3, 0.3), st.floats(-0.2, 0.2)))


@st.composite
def bundles(draw, weights=False):
    """(bundle, generators) of one to four fibers whose rotations repeat
    often, 0 among them; with ``weights`` the generators weigh 1 or 2 and
    some are odd."""
    n = draw(st.integers(1, 4))
    names = tuple("z%d" % (k + 1) for k in range(n))
    rotations = draw(st.lists(st.sampled_from((0, 1, -1, 2)), min_size=n, max_size=n))
    if weights:
        gens = Generators(names, draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)),
                          draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    else:
        gens = Generators(names)
    return FormalBundle(names, rotations), gens


@SETTINGS
@given(factor=FACTORS, bundle=bundles(), t=T, order=st.integers(1, 3), cap=st.integers(0, 6))
def test_theta_quotients_match_the_fiber_by_fiber_route(factor, bundle, t, order, cap):
    bundle, gens = bundle
    got = ch_theta_twist(factor, bundle, t, gens=gens, cap=cap, q_order=order)
    want = theta_twist_by_fibers(factor, bundle, t, gens=gens, cap=cap, q_order=order)
    assert bits(got) == bits(want)


@SETTINGS
@given(factor=FACTORS, bundle=bundles(weights=True), t=T, order=st.integers(1, 3),
       cap=st.integers(0, 6), exponent=st.integers(1, 2))
def test_fibers_of_one_rotation_but_another_weight_or_parity_make_their_own_ratio(
        factor, bundle, t, order, cap, exponent):
    bundle, gens = bundle
    got = ch_theta_twist(factor, bundle, t, gens=gens, cap=cap, q_order=order,
                         exponent=exponent)
    want = theta_twist_by_fibers(factor, bundle, t, gens=gens, cap=cap, q_order=order,
                                 exponent=exponent)
    assert bits(got) == bits(want)


@SETTINGS
@given(factor=FACTORS, bundle=bundles(), t=T, order=st.integers(1, 3), cap=st.integers(0, 6))
def test_the_oracle_matches_the_rung_by_rung_route(factor, bundle, t, order, cap):
    bundle, gens = bundle
    got = ch_twist_oracle(factor, bundle, t, order, gens, cap)
    want = twist_oracle_by_rungs(factor, bundle, t, order, gens, cap)
    assert bits(got) == bits(want)


def test_every_factor_and_order_matches_at_repeated_rotations():
    # the examples above draw these; here each is met for certain
    gens = Generators(("z1", "z2", "z3"))
    bundle = FormalBundle(("z1", "z2", "z3"), (1, 1, -2))
    for factor in LADDERS:
        for order in (1, 2, 3):
            got = ch_theta_twist(factor, bundle, 0.11 + 0.07j, gens=gens, cap=4, q_order=order)
            want = theta_twist_by_fibers(factor, bundle, 0.11 + 0.07j, gens=gens, cap=4,
                                         q_order=order)
            assert bits(got) == bits(want)
            got = ch_twist_oracle(factor, bundle, 0.11 + 0.07j, order, gens, 4)
            want = twist_oracle_by_rungs(factor, bundle, 0.11 + 0.07j, order, gens, 4)
            assert bits(got) == bits(want)


def test_a_complex_coefficient_with_a_negative_zero_part_is_multiplied_by_one():
    # 1.0 times a plain scalar keeps its multiply: complex(1, -0.0) * 1.0 is
    # (1+0j), so the product's zero part is +0.0
    for a, b in ((complex(1.0, -0.0), 1.0), (1.0, complex(1.0, -0.0)),
                 (complex(-0.0, 2.0), 1.0), (1.0, complex(2.0, -0.0))):
        got = (QSeries._raw({0: a, 8: a}, 24) * QSeries._raw({0: b}, 24)).terms
        assert [repr(c) for c in got.values()] == [repr(a * b)] * 2
    assert repr(complex(1.0, -0.0) * 1.0) == "(1+0j)"
    # a polynomial coefficient is its own product by 1.0
    gens = Generators(("x",))
    x = ChernPoly(gens, 2, {(1,): complex(1.0, -0.0)})
    left = QSeries._raw({0: x}, 16) * QSeries._raw({0: 1.0, 8: 1.0}, 16)
    right = QSeries._raw({0: 1.0, 8: 1.0}, 16) * QSeries._raw({0: x}, 16)
    assert all(c is x for c in left.terms.values())
    assert all(c is x for c in right.terms.values())
