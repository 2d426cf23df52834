import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import count_products
from ellrig.errors import CapacityError, InversionError, PreconditionError, RingMismatchError
from ellrig.polynomial import MAX_CAP, ChernPoly, Generators
from product_reference import exponent_terms


def terms(p):
    """The terms of p keyed by exponent tuples."""
    return dict(exponent_terms(p))


@pytest.fixture
def xy():
    g = Generators(("x", "y"))
    return g, ChernPoly.generator(g, 2, "x"), ChernPoly.generator(g, 2, "y")


class TestTruncation:
    def test_nilpotent_square_at_cap_one(self):
        g = Generators(("x",))
        x = ChernPoly.generator(g, 1, "x")
        assert not (x * x)

    def test_difference_of_squares(self, xy):
        g, x, y = xy
        p = (1 + x) * (1 - x)
        assert p.coefficient({}) == 1
        assert p.coefficient({"x": 2}) == -1
        assert p.coefficient({"x": 1}) == 0

    def test_nilpotency_above_cap(self, rng):
        g = Generators(("x", "y", "z"))
        for cap in (1, 2, 3):
            coeffs = rng.standard_normal(3)
            p = sum(
                ChernPoly.generator(g, cap, n, complex(c))
                for n, c in zip(g.names, coeffs)
            )
            assert not p ** (cap + 1)

    def test_weighted_degrees(self):
        g = Generators(("y", "T3"), weights=(1, 3), odd=(False, True))
        t3 = ChernPoly.generator(g, 3, "T3")
        y = ChernPoly.generator(g, 3, "y")
        assert t3.coefficient({"T3": 1}) == 1
        assert not y * t3  # weight 4 exceeds the cap


class TestOddGenerators:
    def test_pairwise_product_zero(self):
        g = Generators(("T3", "T5"), weights=(3, 5), odd=(True, True))
        t3 = ChernPoly.generator(g, 8, "T3")
        t5 = ChernPoly.generator(g, 8, "T5")
        assert not t3 * t3
        assert not t3 * t5

    def test_odd_survives_even_products(self):
        g = Generators(("y", "T3"), weights=(1, 3), odd=(False, True))
        y = ChernPoly.generator(g, 4, "y")
        t3 = ChernPoly.generator(g, 4, "T3")
        p = y * t3
        assert p.coefficient({"y": 1, "T3": 1}) == 1


class TestExp:
    def test_truncated_exponential(self):
        g = Generators(("x",))
        x = ChernPoly.generator(g, 2, "x")
        e = x.exp()
        assert e.coefficient({}) == 1
        assert e.coefficient({"x": 1}) == 1
        assert e.coefficient({"x": 2}) == pytest.approx(0.5)

    def test_exp_of_zero(self):
        g = Generators(("x",))
        assert ChernPoly.zero(g, 3).exp() == 1

    def test_two_variables_cap_one(self, xy):
        g, _, _ = xy
        x = ChernPoly.generator(g, 1, "x")
        y = ChernPoly.generator(g, 1, "y")
        e = (x + y).exp()
        assert e == 1 + x + y

    def test_nonzero_constant_rejected(self, xy):
        g, x, _ = xy
        with pytest.raises(PreconditionError):
            (1 + x).exp()

    def test_exp_inverse_pairing_is_exact(self, rng):
        g = Generators(("a", "b"))
        for _ in range(6):
            p = sum(
                ChernPoly.generator(g, 3, n, complex(c))
                for n, c in zip(g.names, rng.standard_normal(2))
            )
            prod = p.exp() * (-p).exp()
            assert (prod - 1).max_abs_coeff() < 1e-15


class TestGuards:
    def test_generator_mismatch(self):
        a = ChernPoly.generator(Generators(("x",)), 2, "x")
        b = ChernPoly.generator(Generators(("y",)), 2, "y")
        with pytest.raises(RingMismatchError):
            a * b

    def test_cap_mismatch(self):
        g = Generators(("x",))
        with pytest.raises(RingMismatchError):
            ChernPoly.generator(g, 2, "x") * ChernPoly.generator(g, 3, "x")

    def test_non_finite_coefficients_rejected(self):
        g = Generators(("x",))
        with pytest.raises(PreconditionError):
            ChernPoly(g, 2, {(1,): float("nan")})

    def test_inverse_needs_constant(self):
        g = Generators(("x",))
        with pytest.raises(InversionError):
            ChernPoly.generator(g, 2, "x").inverse()

    @pytest.mark.parametrize("zero", [0, 0.0, -0.0, 0j, Fraction(0)])
    def test_division_by_a_zero_scalar_is_an_inversion_error(self, zero):
        # as the zero polynomial is, and not a bare ZeroDivisionError
        p = ChernPoly.generator(Generators(("x",)), 2, "x") + 1
        with pytest.raises(InversionError):
            p / zero
        with pytest.raises(InversionError):
            p / ChernPoly.zero(p.gens, p.cap)

    def test_inverse_roundtrip(self):
        g = Generators(("x", "y"))
        p = 2 - ChernPoly.generator(g, 3, "x") + 0.5 * ChernPoly.generator(g, 3, "y")
        prod = p * p.inverse()
        assert (prod - 1).max_abs_coeff() < 1e-15


# ---------------------------------------------------------------- properties

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def declarations(draw, max_gens=3):
    """A generator declaration with weights up to 3, some generators odd,
    and a cap from 0 to 5."""
    n = draw(st.integers(1, max_gens))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    odd = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    gens = Generators(tuple("g%d" % i for i in range(n)), weights, odd)
    return gens, draw(st.integers(0, 5))


def monomials(gens, cap):
    return st.tuples(*(st.integers(0, cap) for _ in gens.names))


def polys(gens, cap, coeffs, constant=None, max_terms=6):
    """ChernPoly values built through the public, validating constructor.

    ``constant`` fixes the coefficient of the empty monomial (``0`` gives a
    nilpotent value)."""
    terms = st.dictionaries(monomials(gens, cap), coeffs, max_size=max_terms)

    def build(t):
        if constant is not None:
            t[(0,) * len(gens)] = constant
        return ChernPoly(gens, cap, t)

    return terms.map(build)


# small integers: sums and products stay exact in floating point, so the
# ring laws can be checked with ==
INTS = st.integers(-4, 4).map(complex)
FLOATS = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


def close(a, b, rel=1e-12):
    scale = max(1.0, a.max_abs_coeff(), b.max_abs_coeff())
    return (a - b).max_abs_coeff() <= rel * scale


def naive_product(a, b):
    """The double loop over monomial pairs, weights and parities recomputed
    for every pair; ``__mul__`` must give the same terms in the same order."""
    gens, cap = a.gens, a.cap

    def weight(m):
        return sum(e * w for e, w in zip(m, gens.weights))

    def odd(m):
        return sum(e for e, f in zip(m, gens.odd) if f)

    out = {}
    for m1, c1 in exponent_terms(a):
        for m2, c2 in exponent_terms(b):
            if weight(m1) + weight(m2) > cap or (odd(m1) and odd(m2)):
                continue
            mono = tuple(x + y for x, y in zip(m1, m2))
            out[mono] = out.get(mono, 0j) + c1 * c2
    return [(m, c) for m, c in out.items() if c != 0]


class TestRingLaws:
    @PROPERTY_SETTINGS
    @given(st.data())
    def test_associativity(self, data):
        gens, cap = data.draw(declarations())
        a, b, c = (data.draw(polys(gens, cap, INTS)) for _ in range(3))
        assert (a * b) * c == a * (b * c)

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_distributivity(self, data):
        gens, cap = data.draw(declarations())
        a, b, c = (data.draw(polys(gens, cap, INTS)) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_inverse(self, data):
        gens, cap = data.draw(declarations())
        unit = data.draw(st.sampled_from((1.0, -2.0, 0.5, 3j)))
        x = data.draw(polys(gens, cap, FLOATS, constant=unit))
        assert close(x * x.inverse(), ChernPoly.one(gens, cap))

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_exp_of_a_sum(self, data):
        gens, cap = data.draw(declarations())
        a, b = (data.draw(polys(gens, cap, FLOATS, constant=0)) for _ in range(2))
        assert close((a + b).exp(), a.exp() * b.exp())

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_odd_times_odd_is_zero(self, data):
        gens, cap = data.draw(declarations())
        odd_names = [n for n, f in zip(gens.names, gens.odd) if f]
        if not odd_names:
            odd_names = ["odd"]
            gens = Generators(gens.names + ("odd",), gens.weights + (1,),
                              gens.odd + (True,))
        a, b = (data.draw(polys(gens, cap, FLOATS)) for _ in range(2))
        s = ChernPoly.generator(gens, cap, data.draw(st.sampled_from(odd_names)))
        t = ChernPoly.generator(gens, cap, data.draw(st.sampled_from(odd_names)))
        assert not (a * s) * (b * t)

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_product_matches_the_naive_double_loop(self, data):
        gens, cap = data.draw(declarations(max_gens=4))
        a, b = (data.draw(polys(gens, cap, FLOATS, max_terms=10)) for _ in range(2))
        assert exponent_terms(a * b) == naive_product(a, b)

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_power_squares_only_while_bits_remain(self, data):
        gens, cap = data.draw(declarations())
        p = data.draw(polys(gens, cap, INTS))
        n = data.draw(st.integers(1, 9))
        power, products = count_products(ChernPoly, lambda: p ** n)
        # one product per set bit, one squaring per bit below the top one
        assert products == bin(n).count("1") + n.bit_length() - 1
        repeated = p
        for _ in range(n - 1):
            repeated = repeated * p
        assert power == repeated


class TestProductRegressions:
    def test_equal_but_distinct_declarations(self):
        # the second declaration is equal, not identical: its monomials
        # have the same packed keys
        g1, g2 = Generators(("a", "b")), Generators(("a", "b"))
        a = ChernPoly.generator(g1, 2, "a") + 1
        b = ChernPoly.generator(g2, 2, "b") + ChernPoly(g2, 2, {(0, 2): 3.0})
        p = a * b
        assert p.gens is g1
        assert terms(p) == {(1, 1): 1, (0, 1): 1, (0, 2): 3}
        assert b * a == p
        assert terms(a + b) == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (0, 2): 3}

    def test_exact_cancellation_drops_the_term(self):
        g = Generators(("x", "y"))
        x, y = ChernPoly.generator(g, 2, "x"), ChernPoly.generator(g, 2, "y")
        p = (x + y) * (x - y)
        assert (1, 1) not in terms(p)
        assert terms(p) == {(2, 0): 1, (0, 2): -1}
        assert (x - x).terms == {}

    def test_overflow_to_infinity_is_rejected(self):
        g = Generators(("x",))
        big = ChernPoly(g, 2, {(0,): 1e200, (1,): 1e200})
        # an operation that overflows is out of capacity, not a bad input
        with pytest.raises(CapacityError):
            big * big
        with pytest.raises(CapacityError):
            big * 1e200
        with pytest.raises(CapacityError):
            big + ChernPoly(g, 2, {(1,): 1.7e308}) + ChernPoly(g, 2, {(1,): 1.7e308})

    def test_a_product_by_one_is_the_polynomial(self):
        # polynomials are never mutated, so a product by exactly 1 returns
        # the operand itself
        g = Generators(("x",))
        p = ChernPoly(g, 2, {(0,): 0.5 - 2j, (1,): 1.5})
        for one in (1, 1.0, 1 + 0j, Fraction(1)):
            assert p * one is p and one * p is p
        assert terms(p * 2.0) == {(0,): 1 - 4j, (1,): 3}

    def test_a_product_by_the_unit_polynomial_runs_no_pair_loop(self):
        # the pair loop reads the terms of both operands; a product by the
        # unit polynomial reads only the other operand's, and copies them
        class Watched(dict):
            reads = 0

            def items(self):
                Watched.reads += 1
                return super().items()

        g = Generators(("x", "T"), odd=(False, True))
        p = ChernPoly(g, 2, {(0, 0): complex(-0.0, 2.0), (1, 1): complex(1.5, -0.0)})
        one = ChernPoly.one(g, 2)
        one.terms = Watched(one.terms)
        for product in (p * one, one * p):
            assert terms(product) == {(0, 0): 2j, (1, 1): 1.5}
            assert [repr(c) for c in product.terms.values()] == ["2j", "(1.5+0j)"]
        assert Watched.reads == 0
        assert p * one is not p

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_values_pickle_without_their_tables(self, protocol):
        g = Generators(("y", "T3"), weights=(1, 3), odd=(False, True))
        p = 2 + ChernPoly.generator(g, 4, "y") * ChernPoly.generator(g, 4, "T3")
        fresh = ChernPoly(g, 4, terms(p))
        # products by p leave nothing on p, and the layout of g is rebuilt
        # from its declaration
        y = ChernPoly.generator(g, 4, "y")
        lefts = [y, y * y + 1j, ChernPoly.generator(g, 4, "T3", -0.5), p]
        products = [left * p for left in lefts]
        assert p == fresh and repr(p) == repr(fresh)
        assert pickle.dumps(p, protocol) == pickle.dumps(fresh, protocol)
        q = pickle.loads(pickle.dumps(p, protocol))
        assert q == p and q.gens == g and q.gens._units == g._units
        assert q * q == p * p
        for left, product in zip(lefts + lefts[::-1], products + products[::-1]):
            for right in (p, q, ChernPoly(g, 4, terms(p))):
                assert bits(left * right) == bits(product)
                assert bits(right * left) == bits(fresh * left)


# ---------------------------------------------------------------- one-term exp


def exp_by_powers(p):
    """The generic power loop of ChernPoly.exp, kept as the oracle of the
    one-term route: sum of p^k/k! through ring products."""
    result = ChernPoly.one(p.gens, p.cap)
    power = ChernPoly.one(p.gens, p.cap)
    for k in range(1, p.cap + 1):
        power = power * p
        if not power:
            break
        result = result + power * (1.0 / math.factorial(k))
    return result


def bits(p):
    """Monomials in order, with each coefficient's repr (signed zeros count)."""
    return [(m, repr(c)) for m, c in exponent_terms(p)]


def exp_outcome(exp, p):
    """bits(exp(p)), or the error class when a power overflows."""
    try:
        return bits(exp(p))
    except CapacityError as exc:
        return type(exc)


SIGNED_ZEROS = st.sampled_from((0.0, -0.0))
PARTS = st.one_of(SIGNED_ZEROS, st.floats(-8.0, 8.0),
                  st.sampled_from((2 * math.pi, -2 * math.pi, 1e-200, -3e-120, 1e150)))
ONE_TERM_COEFFS = st.builds(complex, PARTS, PARTS)


class TestOneTermExp:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_the_power_loop_bit_for_bit(self, data):
        gens, cap = data.draw(declarations())
        # every nilpotent monomial the ring keeps
        ring = [m for m in itertools.product(range(cap + 1), repeat=len(gens))
                if any(m) and gens.key(m, cap) is not None]
        assume(ring)
        mono = data.draw(st.sampled_from(ring))
        p = ChernPoly(gens, cap, {mono: data.draw(ONE_TERM_COEFFS)})
        assume(p)
        assert exp_outcome(ChernPoly.exp, p) == exp_outcome(exp_by_powers, p)

    @pytest.mark.parametrize("coeff", [2j * math.pi, -2j * math.pi, complex(-0.0, 2 * math.pi),
                                       complex(-0.0, -2 * math.pi), complex(0.5, -0.0)])
    @pytest.mark.parametrize("weights, odd, cap", [
        ((1,), (False,), 5), ((2,), (False,), 5), ((3,), (False,), 6),
        ((1,), (True,), 4), ((2, 1), (False, True), 5)])
    def test_weights_and_odd_generators(self, coeff, weights, odd, cap):
        gens = Generators(tuple("g%d" % i for i in range(len(weights))), weights, odd)
        for name in gens.names:
            p = ChernPoly.generator(gens, cap, name, coeff)
            assert bits(p.exp()) == bits(exp_by_powers(p))
        top = 1 if odd[0] else cap // weights[0]
        assert len(ChernPoly.generator(gens, cap, "g0", coeff).exp().terms) == top + 1

    def test_underflow_stops_the_sum(self):
        g = Generators(("x",))
        p = ChernPoly.generator(g, 4, "x", 1e-200)
        assert list(terms(p.exp())) == [(0,), (1,)]
        assert bits(p.exp()) == bits(exp_by_powers(p))

    def test_overflow_is_rejected(self):
        g = Generators(("x",))
        with pytest.raises(CapacityError):
            ChernPoly.generator(g, 4, "x", 1e200).exp()


class TestDispatch:
    def test_equal_but_distinct_declaration_multiplies(self):
        g1, g2 = Generators(("x", "y")), Generators(("x", "y"))
        a = ChernPoly.generator(g1, 2, "x", 2.0) + 1
        b = ChernPoly.generator(g2, 2, "y", 3.0) + 1
        for p in (a * b, a + b, a - b):
            assert p.gens is g1
        assert terms(a * b) == {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 6}

    def test_mismatched_declaration_or_cap_raises(self):
        a = ChernPoly.generator(Generators(("x", "y")), 2, "x")
        other = ChernPoly.generator(Generators(("x", "z")), 2, "x")
        capped = ChernPoly.generator(a.gens, 3, "x")
        for b in (other, capped):
            for op in (lambda: a * b, lambda: a + b, lambda: a - b, lambda: a / (b + 1)):
                with pytest.raises(RingMismatchError):
                    op()

    def test_fraction_is_a_scalar(self):
        g = Generators(("x",))
        p = ChernPoly.generator(g, 2, "x", 3.0) + 6
        third = complex(Fraction(1, 3))
        expected = {m: c * third for m, c in p.terms.items()}
        assert (p * Fraction(1, 3)).terms == expected
        assert (Fraction(1, 3) * p).terms == expected
        assert terms(p + Fraction(1, 3)) == {(0,): 6 + third, (1,): 3}
        assert p * Fraction(1, 3) == p / 3
        assert ChernPoly.scalar(g, 2, 0.5) == Fraction(1, 2)

    def test_foreign_operand_is_not_implemented(self):
        p = ChernPoly.one(Generators(("x",)), 2)
        with pytest.raises(TypeError):
            p * "x"
        with pytest.raises(TypeError):
            p + None


# ---------------------------------------------------------------- declarations


class TestDeclaration:
    G = Generators(("x", "y", "T3"), weights=(1, 1, 3), odd=(False, False, True))

    def test_keys_and_top_power(self):
        # a ring keeps the monomials within the cap and the odd rule, and
        # nothing else
        key = self.G.key
        assert key((2, 1, 0), 4) is not None and key((0, 1, 1), 4) is not None
        assert key((2, 1, 0), 2) is None and key((0, 0, 2), 6) is None
        top = [self.G.top_power(key(m, 4), 4) for m in ((1, 0, 0), (0, 0, 1), (2, 0, 0))]
        assert top == [4, 1, 2]
        # the layout does not depend on the cap
        assert self.G.top_power(key((1, 0, 0), 4), 2) == 2
        assert self.G.top_power(key((0, 0, 1), 4), 2) == 0

    def test_packed_layout(self):
        # exponents in the low fields, then the odd count, then the degree;
        # a product of kept monomials is the sum of their keys, a power a
        # multiple
        G, cap = self.G, 6
        kept = [m for m in itertools.product(range(cap + 1), repeat=3)
                if G.key(m, cap) is not None]
        assert G.key((0, 0, 0), cap) == 0
        for m in kept:
            k = G.key(m, cap)
            assert G.exponents(k) == m
            assert G.weight_of(k) == m[0] + m[1] + 3 * m[2] and G.odd_count(k) == m[2]
            for m2 in kept:
                both = tuple(map(sum, zip(m, m2)))
                if G.key(both, cap) is not None:
                    assert k + G.key(m2, cap) == G.key(both, cap)
        assert 3 * G.key((1, 1, 0), cap) == G.key((3, 3, 0), cap)
        assert G.exponents(G.key((MAX_CAP, 0, 0), MAX_CAP)) == (MAX_CAP, 0, 0)

    def test_identity_is_names_weights_and_parity(self):
        same = Generators(("x", "y", "T3"), (1, 1, 3), (False, False, True))
        assert same == self.G and hash(same) == hash(self.G)
        assert self.G != Generators(("x", "y", "T3"), (1, 1, 3))
        assert self.G != Generators(("x", "y", "T3"), (1, 2, 3), (False, False, True))
        assert self.G != Generators(("y", "x", "T3"), (1, 1, 3), (False, False, True))
        assert len({same, self.G}) == 1
        assert repr(self.G) == "Generators(x[w=1], y[w=1], T3[w=3, odd])"
        back = pickle.loads(pickle.dumps(self.G))
        assert back == self.G and repr(back) == repr(self.G)

    def test_ring_constants_skip_validation(self):
        x = ChernPoly.generator(self.G, 4, "x", 0.5)
        unit = x + ChernPoly.generator(self.G, 4, "T3", 2.0) + 3
        nil = unit - 3
        original = ChernPoly.__init__
        validated = []

        def counting(self, *args):
            validated.append(args)
            original(self, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ChernPoly, "__init__", counting)
            unit.inverse(), nil.exp(), x.exp(), unit ** 3, unit + 2, unit - 1j, unit * 2
        assert validated == []
        # the public constructors still validate
        with pytest.raises(PreconditionError):
            ChernPoly.scalar(self.G, 4, float("nan"))
        assert not ChernPoly(self.G, 4, {(0, 0, 2): 1.0})

    @pytest.mark.parametrize("mono", [(-1, 0, 0), (1, -1, 0), (0.5, 0, 0), (1.0, 0, 0),
                                      (Fraction(1), 0, 0), ("1", 0, 0)])
    def test_exponents_are_non_negative_integers(self, mono):
        # a negative exponent used to be kept: x^-1 printed as 1*x^-1, and
        # x times it gave 1
        with pytest.raises(PreconditionError):
            ChernPoly(self.G, 4, {mono: 1.0})
        with pytest.raises(PreconditionError):
            ChernPoly.one(self.G, 4).coefficient(mono)

    def test_a_cap_above_the_field_width_is_refused(self):
        assert ChernPoly.generator(self.G, MAX_CAP, "x").cap == MAX_CAP
        for build in (ChernPoly.one, ChernPoly.zero,
                      lambda g, cap: ChernPoly.generator(g, cap, "x")):
            with pytest.raises(CapacityError):
                build(self.G, MAX_CAP + 1)

    def test_inverse_factorials_out_of_float_range_are_refused(self):
        # 1/171! needs 171! as a float; this used to end in an OverflowError
        g = Generators(("x", "y"))
        x = ChernPoly.generator(g, 171, "x", 2.0)
        for p in (x, x + ChernPoly.generator(g, 171, "y", 2.0)):
            with pytest.raises(CapacityError):
                p.exp()
        # below that the sums are unchanged, and a power that underflows
        # ends them first
        assert ChernPoly.generator(g, 170, "x", 2.0).exp().coefficient((170, 0)) != 0
        assert ChernPoly.generator(g, 171, "x", 1e-3).exp()

    def test_every_monomial_within_the_cap_is_formed(self):
        """A product forms every monomial within the cap, so a non-finite
        coefficient raises wherever it lands."""
        g = Generators(("x", "y"))
        terms = {(0, 0): 1.0, (1, 0): 1e200, (0, 1): 1.0}
        with pytest.raises(CapacityError):
            ChernPoly(g, 2, terms) * ChernPoly(g, 2, terms)
