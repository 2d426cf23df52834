from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_products
from ellrig.errors import DomainError, InversionError, OrderError, RingMismatchError
from ellrig.polynomial import ChernPoly, Generators
from ellrig.series import QExponent, QSeries, qexp


def S(terms, order=30):
    return QSeries({qexp(e): c for e, c in terms.items()}, order)


class TestQExponent:
    def test_lattice_coercion(self):
        assert qexp(3).eighths == 24
        assert qexp(Fraction(1, 2)).eighths == 4
        assert qexp(Fraction(-1, 8)).eighths == -1

    def test_off_lattice_rejected(self):
        with pytest.raises(DomainError):
            qexp(Fraction(1, 3))
        with pytest.raises(DomainError):
            qexp(0.5)

    def test_exact_arithmetic(self):
        assert qexp(Fraction(1, 8)) + qexp(Fraction(7, 8)) == qexp(1)
        assert (qexp(Fraction(1, 2)) * 3).as_fraction() == Fraction(3, 2)
        assert str(qexp(Fraction(3, 8))) == "3/8"


class TestProducts:
    def test_difference_of_squares(self):
        a = S({0: 1.0, Fraction(1, 2): -1.0})
        b = S({0: 1.0, Fraction(1, 2): 1.0})
        p = a * b
        assert p.coeff(0) == 1.0
        assert p.coeff(Fraction(1, 2)) == 0j
        assert p.coeff(1) == -1.0

    def test_one_is_identity(self):
        s = S({0: 2.0, 1: -3.5, Fraction(5, 2): 1j})
        assert QSeries.one(30) * s == s

    def test_unit_coefficients_are_not_multiplied(self):
        # factor series carry the float 1.0 at q^0; a ChernPoly is its own
        # product by 1
        g = Generators(("x",))
        p = ChernPoly.generator(g, 2, "x") + 2
        s = S({0: p, 1: p * 3.0})
        factor = S({0: 1.0, Fraction(1, 2): -1.0})
        for product in (s * factor, factor * s):
            assert product.coeff(0) is p
            assert product.coeff(Fraction(1, 2)) == -p
            assert product.coeff(1) == p * 3.0
            assert product.coeff(Fraction(3, 2)) == p * -3.0
        scalar = S({0: 0.5 - 1j, 2: 2j}) * S({0: 1.0, 1: 1.0})
        assert scalar.terms == {0: 0.5 - 1j, 8: 0.5 - 1j, 16: 2j, 24: 2j}

    def test_exponent_lattice_addition(self):
        p = S({Fraction(1, 8): 1.0}) * S({Fraction(7, 8): 1.0})
        assert p.coeff(1) == 1.0
        assert p.support() == [qexp(1)]

    def test_mul_order_accounts_for_min_exponents(self):
        a = S({1: 1.0}, order=10)
        b = S({2: 1.0}, order=10)
        # unknown tails shift by the other operand's minimum exponent
        assert (a * b).order == qexp(11)


class TestInverse:
    def test_geometric_series(self):
        inv = S({0: 1.0, 1: -1.0}, order=4).inverse()
        assert [inv.coeff(k) for k in range(4)] == [1.0, 1.0, 1.0, 1.0]

    def test_inverse_of_one(self):
        assert QSeries.one(12).inverse() == QSeries.one(12)

    def test_laurent_tail(self):
        s = S({1: 1.0, 2: -1.0}).inverse()
        assert s.min_exponent() == qexp(-1)
        assert s.terms[qexp(-1)] == 1.0

    def test_zero_leading_means_no_inverse(self):
        with pytest.raises(InversionError):
            QSeries.zero(10).inverse()

    def test_roundtrip(self, rng):
        for _ in range(8):
            exps = [0] + sorted(rng.integers(1, 80, size=6).tolist())
            coeffs = rng.standard_normal(len(exps)) + 1j * rng.standard_normal(len(exps))
            terms = {QExponent(int(e)): complex(c) for e, c in zip(exps, coeffs)}
            terms[qexp(0)] = 1.0 + 0.2 * terms[qexp(0)]
            a = QSeries(terms, 12)
            p = a * a.inverse()
            assert abs(p.coeff(0) - 1.0) < 1e-12
            assert all(abs(p.coeff(e)) < 1e-12 for e in p.support() if e != qexp(0))


class TestCoeffAccess:
    def test_stored_and_absent(self):
        s = S({0: 1.0, 1: 3.0})
        assert s.coeff(1) == 3.0
        assert s.coeff(Fraction(1, 2)) == 0j

    def test_beyond_order_is_unknown(self):
        s = S({0: 1.0}, order=30)
        with pytest.raises(OrderError):
            s.coeff(50)

    def test_plain_construction_rejects_negative_exponents(self):
        with pytest.raises(DomainError):
            QSeries({qexp(-1): 1.0}, 10)


class TestRingAxioms:
    def test_associativity_and_distributivity(self, rng):
        def rand():
            n = rng.integers(3, 7)
            exps = rng.integers(0, 90, size=n)
            vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            return QSeries(
                {QExponent(int(e)): complex(c) for e, c in zip(exps, vals)}, 12
            )

        for _ in range(10):
            a, b, c = rand(), rand(), rand()
            left = (a * b) * c
            right = a * (b * c)
            assert left.order == right.order
            for e in set(left.support()) | set(right.support()):
                assert abs(left.coeff(e) - right.coeff(e)) < 1e-12
            d1 = a * (b + c)
            d2 = a * b + a * c
            for e in set(d1.support()) | set(d2.support()):
                assert abs(d1.coeff(e) - d2.coeff(e)) < 1e-12


class TestPolynomialCoefficients:
    def test_chernpoly_coefficient_ring(self):
        g = Generators(("x",))
        x = ChernPoly.generator(g, 2, "x")
        s = QSeries({qexp(0): ChernPoly.one(g, 2), qexp(1): x}, 4)
        sq = s * s
        assert sq.coeff(1) == 2 * x
        assert sq.coeff(2) == x * x

    def test_mismatched_generator_sets_refused(self):
        gx = Generators(("x",))
        gy = Generators(("y",))
        a = QSeries({qexp(0): ChernPoly.one(gx, 2),
                     qexp(1): ChernPoly.generator(gx, 2, "x")}, 4)
        b = QSeries({qexp(0): ChernPoly.one(gy, 2),
                     qexp(1): ChernPoly.generator(gy, 2, "y")}, 4)
        with pytest.raises(RingMismatchError):
            a * b

    def test_polynomial_leading_coefficient_inversion(self):
        g = Generators(("x",))
        x = ChernPoly.generator(g, 2, "x")
        s = QSeries({qexp(0): 1 + x, qexp(1): x}, 3)
        inv = s.inverse()
        p = s * inv
        assert (p.coeff(0) - 1).max_abs_coeff() < 1e-12
        for e in p.support():
            if e != qexp(0):
                assert p.coeff(e).max_abs_coeff() < 1e-12


class TestSupportBounds:
    def test_products_never_dip_below_the_operand_tails(self, rng):
        for _ in range(10):
            a = QSeries({qexp(1): 1.0, qexp(2): complex(rng.standard_normal())}, 10)
            b = QSeries({qexp(2): 1.0, qexp(3): complex(rng.standard_normal())}, 10)
            inv_a = a.inverse()          # tail reaches q^-1, bounded there
            prod = inv_a * b
            assert prod.min_exponent() >= inv_a.min_exponent() + b.min_exponent()
            assert inv_a.min_exponent() == qexp(-1)


# ---------------------------------------------------------------- properties

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
GENS = Generators(("x", "y"))
CAP = 2

# Gaussian integers: sums and products stay exact in floating point, so the
# ring laws are checked with ==
GAUSS = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
UNITS = st.sampled_from([1.0, -1.0, 1j, -1j])


def poly(constant, x, y, xy):
    x_, y_ = ChernPoly.generator(GENS, CAP, "x"), ChernPoly.generator(GENS, CAP, "y")
    return constant + x_ * x + y_ * y + x_ * y_ * xy


COEFFS = {
    "complex": (GAUSS, UNITS),
    "chernpoly": (st.builds(poly, GAUSS, GAUSS, GAUSS, GAUSS),
                  st.builds(poly, UNITS, GAUSS, GAUSS, GAUSS)),
}
# half-integer exponents, so that supports overlap often
EXPONENTS = st.integers(0, 6).map(lambda k: QExponent(4 * k))


@st.composite
def series(draw, ring, lead=None, max_order=8):
    """A QSeries with coefficients from ``ring``; with ``lead`` the support
    starts at that exponent with a unit (invertible) coefficient."""
    coeffs, units = COEFFS[ring]
    order = QExponent(4 * draw(st.integers(1, max_order)))
    terms = draw(st.dictionaries(EXPONENTS, coeffs, max_size=4))
    if lead is not None:
        terms = {e: c for e, c in terms.items() if e > lead}
        terms[lead] = draw(units)
        order = order + lead
    return QSeries(terms, order)


def agree(a, b):
    """Equal below the order both operands know."""
    order = min(a.order, b.order)
    return ({e: c for e, c in a.terms.items() if e < order}
            == {e: c for e, c in b.terms.items() if e < order})


def naive_product(a, b):
    """The double loop over the supports, with the order rule of __mul__:
    each operand's unknown tail is shifted by the other's lowest exponent."""
    order = min(a.order + b.min_exponent(), b.order + a.min_exponent())
    out = {}
    for e1 in a.support():
        for e2 in b.support():
            if e1 + e2 < order:
                out[e1 + e2] = out.get(e1 + e2, 0) + a.coeff(e1) * b.coeff(e2)
    return QSeries(out, order)


@pytest.mark.parametrize("ring", sorted(COEFFS))
class TestRingLaws:
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_power_squares_only_while_bits_remain(self, ring, data):
        p = data.draw(series(ring))
        n = data.draw(st.integers(1, 6))
        power, products = count_products(QSeries, lambda: p ** n)
        # one product per set bit, one squaring per bit below the top one
        assert products == bin(n).count("1") + n.bit_length() - 1
        repeated = p
        for _ in range(n - 1):
            repeated = repeated * p
        assert power == repeated

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_associativity(self, ring, data):
        a, b, c = (data.draw(series(ring)) for _ in range(3))
        assert agree((a * b) * c, a * (b * c))

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_distributivity(self, ring, data):
        a, b, c = (data.draw(series(ring)) for _ in range(3))
        assert agree(a * (b + c), a * b + a * c)
        assert agree((b + c) * a, b * a + c * a)

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_product_matches_the_naive_double_loop(self, ring, data):
        a, b = data.draw(series(ring)), data.draw(series(ring))
        p = a * b
        assert p.order == naive_product(a, b).order
        assert p == naive_product(a, b)

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_inverse(self, ring, data):
        x = data.draw(series(ring, lead=QExponent(0)))
        inv = x.inverse()
        assert inv.order == x.order
        assert x * inv == 1

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_laurent_inverse(self, ring, data):
        m = QExponent(4 * data.draw(st.integers(1, 4)))
        x = data.draw(series(ring, lead=m))
        span = x.order - m
        inv = x.inverse()
        assert inv.order == span - m
        assert inv.min_exponent() == -m
        product = x * inv
        assert product.order == span
        assert product == 1


# ---------------------------------------------------------------- int exponents
#
# Inside a series the exponents are plain int eighths.  The reference below
# keeps every exponent as an exact Fraction and implements the same
# operations from their definitions; with Gaussian-integer coefficients
# and unit leads all arithmetic is exact, so the two must agree with ==.


def reference(s):
    """(terms keyed by Fraction exponents, Fraction order) of a series."""
    return {e.as_fraction(): s.coeff(e) for e in s.support()}, s.order.as_fraction()


def ref_mul(a, b):
    (ta, oa), (tb, ob) = a, b
    order = min(oa + (min(tb) if tb else ob), ob + (min(ta) if ta else oa))
    out = {}
    for e1, c1 in ta.items():
        for e2, c2 in tb.items():
            if e1 + e2 < order:
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}, order


def ref_add(a, b):
    (ta, oa), (tb, ob) = a, b
    order = min(oa, ob)
    out = {}
    for terms in (ta, tb):
        for e, c in terms.items():
            if e < order:
                out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}, order


def ref_inverse(a):
    """1/a from the recurrence on the (1/8)-lattice, with a = lead q^m (1 + u)."""
    ta, oa = a
    m = min(ta)
    lead = ta[m]
    lead_inv = lead.inverse() if isinstance(lead, ChernPoly) else 1.0 / lead
    span = oa - m
    u = {e - m: lead_inv * c for e, c in ta.items() if e != m}
    inv = {Fraction(0): 1.0}
    for k in range(1, int(span * 8)):
        n = Fraction(k, 8)
        acc = 0
        for f, cf in u.items():
            if n - f in inv:
                acc = acc + cf * inv[n - f]
        if acc:
            inv[n] = -acc
    return {n - m: c * lead_inv for n, c in inv.items()}, span - m


@pytest.mark.parametrize("ring", sorted(COEFFS))
class TestIntExponents:
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_products_and_sums_match_the_fraction_reference(self, ring, data):
        a, b = data.draw(series(ring)), data.draw(series(ring))
        assert reference(a * b) == ref_mul(reference(a), reference(b))
        assert reference(a + b) == ref_add(reference(a), reference(b))

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_inverse_matches_the_fraction_reference(self, ring, data):
        # the lead may sit above q^0, which gives the inverse a Laurent tail
        lead = QExponent(data.draw(st.sampled_from((0, 1, 4, 12))))
        x = data.draw(series(ring, lead=lead))
        inv = x.inverse()
        assert reference(inv) == ref_inverse(reference(x))
        assert inv.min_exponent() == -lead

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_keys_are_ints_and_the_surface_is_qexponent(self, ring, data):
        lead = QExponent(data.draw(st.sampled_from((0, 8))))
        x = data.draw(series(ring, lead=lead))
        for s in (x, x * x, x + x, x.inverse(), -x, x ** 2):
            assert all(type(e) is int for e in s.terms)
            assert all(type(e) is QExponent for e in s.support())
            assert type(s.order) is QExponent
            assert type(s.min_exponent()) is QExponent
            assert [s.coeff(e) for e in s.support()] == [
                s.terms[k] for k in sorted(s.terms)]


class TestQExponentIsAnInt:
    def test_value_is_the_eighths(self):
        assert QExponent(8) == 8 and hash(QExponent(8)) == hash(8)
        assert qexp(1) != 1
        assert qexp(1).eighths == 8 and type(qexp(1).eighths) is int

    def test_lookup_by_qexponent(self):
        s = QSeries.one(4).inverse() * QSeries.monomial(Fraction(1, 2), 3.0, 4)
        assert s.terms[qexp(Fraction(1, 2))] == 3.0
        assert s.coeff(Fraction(1, 2)) == 3.0

    def test_arithmetic_reads_plain_ints_as_whole_powers(self):
        assert qexp(1) + 1 == 1 + qexp(1) == qexp(2)
        assert qexp(2) - 1 == qexp(1) and 3 - qexp(1) == qexp(2)
        assert type(qexp(1) + 1) is QExponent and type(3 - qexp(1)) is QExponent
        assert -qexp(Fraction(1, 8)) == QExponent(-1)

    def test_str_and_repr(self):
        assert [str(QExponent(n)) for n in (-9, -8, 0, 3, 4, 16)] == [
            "-9/8", "-1", "0", "3/8", "1/2", "2"]
        assert repr(QExponent(12)) == "QExponent(3/2)"
        s = QSeries({0: 1.0, Fraction(1, 2): -2j, 2: 0.5}, 3)
        assert repr(s) == "1.0 + (-0-2j)*q^(1/2) + 0.5*q^(2) + O(q^(3))"
        assert repr(QSeries.monomial(1, 1.0, 2).inverse()) == "1.0*q^(-1) + O(q^(0))"
