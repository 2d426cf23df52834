"""Products and sums of packed monomials give the bits, and the key order,
of products and sums on exponent tuples (tests/product_reference.py).

Each right operand here is multiplied by several left operands in turn, and
a Cauchy product meets each right coefficient with every left one.
Coefficients include exact-zero and -0.0 parts and the unit 1.0, whose
signs and shortcuts a reordered or fused operation would change, and the
unit polynomial 1 is an operand of its own.
"""

import itertools
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from ellrig.polynomial import ChernPoly, Generators
from ellrig.series import QSeries
from product_reference import bits, chern_product, chern_sum, series_product

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

PARTS = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3e-7, 1e10)),
    st.floats(-10, 10, allow_nan=False))
COEFFS = st.one_of(st.just(1 + 0j), st.builds(complex, PARTS, PARTS))


# coefficients with a zero part of either sign
SIGNED_ZEROS = st.one_of(
    st.builds(complex, st.sampled_from((0.0, -0.0)), PARTS),
    st.builds(complex, PARTS, st.sampled_from((0.0, -0.0))))
# the unit 1, also with a -0.0 imaginary part
UNITS = st.sampled_from((1, 1.0, 1 + 0j, complex(1.0, -0.0)))


@st.composite
def rings(draw, with_odd=False):
    """(generators, cap) of a declaration of one to three generators of
    weights 1 to 3, some odd (at least one ``with_odd``), at a cap from 0
    to 8."""
    n = draw(st.integers(1, 3))
    odd = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if with_odd:
        odd[draw(st.integers(0, n - 1))] = True
    gens = Generators(tuple("g%d" % i for i in range(n)),
                      draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), odd)
    return gens, draw(st.integers(0, 8))


def polys(gens, cap, coeffs=COEFFS):
    monos = st.tuples(*[st.integers(0, cap)] * len(gens))
    return st.dictionaries(monos, coeffs, max_size=8).map(
        lambda terms: ChernPoly(gens, cap, terms))


def series(gens, cap):
    coeff = st.one_of(polys(gens, cap), COEFFS, st.just(1.0), st.floats(-3, 3))
    return st.dictionaries(st.sampled_from((0, 4, 8, 12, 16, 20)), coeff, max_size=5).map(
        lambda terms: QSeries._raw(terms, 24))


@SETTINGS
@given(st.data())
def test_chern_products_match_the_reference(data):
    gens, cap = data.draw(rings())
    right = data.draw(polys(gens, cap))
    lefts = data.draw(st.lists(polys(gens, cap), min_size=1, max_size=4))
    for left in lefts + [right]:
        assert bits(left * right) == bits(chern_product(left, right))
        assert bits(right * left) == bits(chern_product(right, left))
        assert bits(left + right) == bits(chern_sum(left, right))
        assert bits(right + left) == bits(chern_sum(right, left))
    for scalar in (1.0, -1, complex(-0.0, 2.0), 0.5):
        assert bits(right * scalar) == bits(chern_product(right, scalar))


@SETTINGS
@given(st.data())
def test_products_by_the_unit_match_the_reference(data):
    # a product by 1 copies the other operand without the pair loop: each
    # zero part of a coefficient comes out +0.0, as the loop's sum onto 0j
    # makes it
    gens, cap = data.draw(rings(with_odd=True))
    unit = ChernPoly(gens, cap, {(0,) * len(gens): data.draw(UNITS)})
    others = data.draw(st.lists(polys(gens, cap, SIGNED_ZEROS), min_size=1, max_size=3))
    for other in others + [unit]:
        assert bits(unit * other) == bits(chern_product(unit, other))
        assert bits(other * unit) == bits(chern_product(other, unit))


@SETTINGS
@given(st.data())
def test_values_survive_a_pickle_round_trip(data):
    gens, cap = data.draw(rings())
    left, right = data.draw(polys(gens, cap)), data.draw(polys(gens, cap))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(right, protocol))
        assert back == right and back.gens == gens
        assert bits(back) == bits(right) and repr(back) == repr(right)
        assert bits(left * back) == bits(left * right)
        assert bits(back * left) == bits(right * left)


@SETTINGS
@given(st.data())
def test_cauchy_products_match_the_reference(data):
    gens, cap = data.draw(rings())
    right = data.draw(series(gens, cap))
    lefts = data.draw(st.lists(series(gens, cap), min_size=1, max_size=3))
    for left in lefts + [right]:
        assert bits(left * right) == bits(series_product(left, right))
        assert bits(right * left) == bits(series_product(right, left))


def test_rows_of_every_row_key():
    # left monomials of every degree and odd count meet one right operand,
    # first one key at a time, then all at once
    gens = Generators(("x", "y", "T"), (1, 1, 2), (False, False, True))
    cap = 4
    monos = [m for m in itertools.product(range(cap + 1), repeat=3)
             if gens.key(m, cap) is not None]
    right = ChernPoly(gens, cap, {m: complex(i + 1, -i) for i, m in enumerate(monos)})
    for m in monos + monos[::-1]:
        left = ChernPoly(gens, cap, {m: 1.5})
        assert bits(left * right) == bits(chern_product(left, right))
    full = ChernPoly(gens, cap, {m: complex(1, i) for i, m in enumerate(monos)})
    assert bits(full * right) == bits(chern_product(full, right))
