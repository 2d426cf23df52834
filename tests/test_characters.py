import cmath
from fractions import Fraction

import pytest

from conftest import poly_close, series_max_diff
from ladder_reference import ladder_by_ring_products

from ellrig.errors import CapacityError, InversionError, PreconditionError
from ellrig.characters import (
    FormalBundle,
    TwistFactor,
    TwistSpec,
    ahat,
    ahat_kernel_coefficients,
    ch_delta,
    ch_power_op,
    ch_theta_twist,
    ch_twist_oracle,
    lhat,
    lhat_kernel_coefficients,
)
from ellrig.polynomial import ChernPoly, Generators
from ellrig.series import QSeries, qexp
from ellrig.theta import TWO_PI_I, TauPoint


def invert_even_series_oracle(coeffs, n):
    """Independent rational series inversion used to pin the genus kernels."""
    inv = [Fraction(0)] * n
    inv[0] = Fraction(1) / coeffs[0]
    for m in range(1, n):
        inv[m] = -sum(coeffs[k] * inv[m - k] for k in range(1, m + 1)) / coeffs[0]
    return inv


class TestGenusKernels:
    def test_sinh_kernel_series_against_division_oracle(self):
        # (u/2)/sinh(u/2): invert sum (u/2)^{2k} / (2k+1)! independently
        denom = [Fraction(1, 4 ** k) / Fraction(__import__("math").factorial(2 * k + 1))
                 for k in range(5)]
        expected = invert_even_series_oracle(denom, 5)
        assert ahat_kernel_coefficients(5) == expected
        assert expected[1] == Fraction(-1, 24)
        assert expected[2] == Fraction(7, 5760)

    def test_tanh_kernel_series(self):
        coeffs = lhat_kernel_coefficients(4)
        assert coeffs[0] == 1
        assert coeffs[1] == Fraction(1, 3)
        assert coeffs[2] == Fraction(-1, 45)

    def test_single_pair(self):
        g = Generators(("y",))
        b = FormalBundle(("y",))
        a = ahat(b, g, 2)
        assert a.coefficient({}) == 1
        assert a.coefficient({"y": 2}) == pytest.approx(-1 / 24)
        l = lhat(b, g, 2)
        assert l.coefficient({}) == 1
        assert l.coefficient({"y": 2}) == pytest.approx(1 / 3)

    def test_rank_zero_and_degree_zero_part(self):
        empty = Generators(())
        assert ahat(FormalBundle(()), empty, 2) == 1
        assert lhat(FormalBundle(()), empty, 2) == 1
        g = Generators(("y1", "y2"))
        b = FormalBundle(("y1", "y2"))
        assert ahat(b, g, 4).degree_part(0) == 1

    def test_signature_density_of_two_pairs(self):
        # degree-4 part of the tanh genus is (7 p2 - p1^2)/45 in root form;
        # the degree-2 part is p1/3 = (y1^2 + y2^2)/3
        g = Generators(("y1", "y2"))
        b = FormalBundle(("y1", "y2"))
        l = lhat(b, g, 2)
        assert l.coefficient({"y1": 2}) == pytest.approx(1 / 3)
        assert l.coefficient({"y2": 2}) == pytest.approx(1 / 3)


class TestPowerOps:
    def test_exterior_of_paired_roots(self):
        g = Generators(("w",))
        t = 0.37 + 0.21j
        got = ch_power_op(FormalBundle(("w",)), "lambda", t, g, 3)
        e_plus = ChernPoly.generator(g, 3, "w").exp()
        e_minus = ChernPoly.generator(g, 3, "w", -1).exp()
        expected = (1 + t * e_plus) * (1 + t * e_minus)
        assert poly_close(got, expected, 1e-14)

    def test_symmetric_inverts_exterior(self):
        g = Generators(("w",))
        b = FormalBundle(("w",))
        t = 0.41 - 0.13j
        prod = ch_power_op(b, "sym", t, g, 3) * ch_power_op(b, "lambda", -t, g, 3)
        assert poly_close(prod, ChernPoly.one(g, 3), 1e-13)

    def test_rank_zero(self):
        assert ch_power_op(FormalBundle(()), "lambda", 0.5, Generators(()), 2) == 1

    def test_difference_bundle_quotient(self):
        # exterior power of a difference equals the quotient of characters
        g = Generators(("a", "b"))
        e = FormalBundle(("a",))
        f = FormalBundle(("b",))
        t = 0.23 + 0.11j
        lam_e = ch_power_op(e, "lambda", t, g, 3)
        lam_f = ch_power_op(f, "lambda", t, g, 3)
        diff = lam_e * lam_f.inverse()
        assert poly_close(diff * lam_f, lam_e, 1e-13)

    def test_reduced_bundle_divides_by_trivial_summands(self):
        g = Generators(("b",))
        f = FormalBundle(("b",))
        t = 0.23 + 0.11j
        reduced = ch_power_op(f.tilde(), "lambda", t, g, 3)
        plain = ch_power_op(f, "lambda", t, g, 3)
        assert poly_close(reduced * (1 + t) ** f.rank_c, plain, 1e-13)

    def test_symmetric_pole_at_unit_parameter(self):
        # a zero root makes (1 - t e^0) vanish at t = 1
        g = Generators(())
        b = FormalBundle((), rank_offset=2)
        with pytest.raises((InversionError, ZeroDivisionError)):
            ch_power_op(b, "sym", 1.0, g, 2)

    def test_formal_parameter(self):
        g = Generators(("w",))
        b = FormalBundle(("w",))
        t = QSeries.monomial(1, 1.0, 4)
        series = ch_power_op(b, "lambda", t, g, 2, root_scale=TWO_PI_I)
        assert series.coeff(0) == ChernPoly.one(g, 2)
        lin = series.coeff(1)
        e_sum = (ChernPoly.generator(g, 2, "w", TWO_PI_I).exp()
                 + ChernPoly.generator(g, 2, "w", -TWO_PI_I).exp())
        assert poly_close(lin, e_sum, 1e-13)


class TestDelta:
    def test_rank_and_prefactor(self):
        g = Generators(("z1", "z2", "z3"))
        fibers = (("z1", 0), ("z2", 0), ("z3", 0))
        d = ch_delta(fibers, 0.0, g, 2)
        assert d.coefficient({}) == pytest.approx(8.0)  # 2^l at zero roots

    def test_rotation_enters_the_cosine(self):
        g = Generators(("z",))
        t = 0.21 + 0.07j
        d = ch_delta((("z", 2),), t, g, 0)
        assert abs(d.constant() - 2 * cmath.cos(2 * cmath.pi * t)) < 1e-12

    def test_quotient_exponent_is_a_power(self):
        # the numeric reference and the formal route each raise the
        # character to it
        g = Generators(("z1", "z2"))
        bundle = FormalBundle(("z1", "z2"), (1, -2))
        t, tau = 0.13 + 0.05j, TauPoint(0.2 + 1.1j)
        one = ladder_by_ring_products(TwistFactor.DELTA_V, bundle.fibers(), t, tau, g, 4).value
        cube = ladder_by_ring_products(TwistFactor.DELTA_V, bundle.fibers(), t, tau, g, 4,
                                       exponent=3).value
        assert poly_close(cube, one * one * one, 1e-12)
        formal = dict(gens=g, cap=4, q_order=2)
        one = ch_theta_twist(TwistFactor.DELTA_V, bundle, t, **formal)
        cube = ch_theta_twist(TwistFactor.DELTA_V, bundle, t, exponent=3, **formal)
        assert series_max_diff(cube, one * one * one) < 1e-12


class TestThetaQuotients:
    def test_q2_trivial_fiber_ratio(self):
        # l = 1, numeric-zero root, zero rotation: theta2(0 t)/theta2(0) = 1
        g = Generators(())
        out = ladder_by_ring_products(TwistFactor.Q2V, (), 0.3, TauPoint(1j), g, 0)
        assert out.value == 1

    def test_q1_spinor_prefactor(self):
        # three fibers at zero roots and t = 0: the character is 2^3
        g = Generators(("z1", "z2", "z3"))
        b = FormalBundle(("z1", "z2", "z3"))
        out = ladder_by_ring_products(TwistFactor.Q1V, b.fibers(), 0.0, TauPoint(1j), g, 0)
        assert abs(out.value.constant() - 8.0) < 1e-12

    def test_leading_coefficient_is_the_rank_scalar(self):
        g = Generators(("z1", "z2"))
        b = FormalBundle(("z1", "z2"))
        for factor, lead in ((TwistFactor.Q2V, 1.0), (TwistFactor.Q3V, 1.0),
                             (TwistFactor.Q1V, 4.0)):
            series = ch_theta_twist(factor, b, 0.0, gens=g, cap=2, q_order=2)
            head = series.coeff(0)
            assert abs(head.constant() - lead) < 1e-12 or poly_close(
                head.degree_part(0), ChernPoly.scalar(g, 2, lead), 1e-12)

    def test_phi0_class_needs_the_engine(self):
        with pytest.raises(PreconditionError):
            ch_theta_twist(TwistFactor.PHI0, FormalBundle(()), 0.0,
                           gens=Generators(()), cap=0, q_order=1)


class TestOracleEquivalence:
    def test_q3_rank_four_zero_rotations(self):
        g = Generators(("z1", "z2"))
        b = FormalBundle(("z1", "z2"))
        got = ch_theta_twist(TwistFactor.Q3V, b, 0.0, gens=g, cap=2, q_order=3)
        oracle = ch_twist_oracle(TwistFactor.Q3V, b, 0.0, 3, g, 2)
        assert min(got.order, oracle.order).as_fraction() > 2
        assert series_max_diff(got, oracle, up_to=qexp(Fraction(9, 4))) < 1e-9

    def test_all_ladders_with_rotations(self, rng):
        g = Generators(("z1", "z2"))
        for factor in (TwistFactor.Q1V, TwistFactor.Q2V, TwistFactor.Q3V):
            rot = tuple(int(r) for r in rng.integers(-2, 3, size=2))
            b = FormalBundle(("z1", "z2"), rot)
            t = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.0, 0.2))
            got = ch_theta_twist(factor, b, t, gens=g, cap=2, q_order=3)
            oracle = ch_twist_oracle(factor, b, t, 3, g, 2)
            assert series_max_diff(got, oracle, up_to=qexp(2)) < 1e-9

    def test_tangent_ladders(self, rng):
        g = Generators(("x1",))
        for factor in (TwistFactor.THETA1, TwistFactor.THETA2, TwistFactor.THETA3):
            b = FormalBundle(("x1",), (1,))
            t = complex(rng.uniform(-0.2, 0.2), rng.uniform(0.05, 0.2))
            got = ch_theta_twist(factor, b, t, gens=g, cap=2, q_order=2)
            oracle = ch_twist_oracle(factor, b, t, 2, g, 2)
            assert series_max_diff(got, oracle, up_to=qexp(Fraction(5, 4))) < 1e-9

    @pytest.mark.parametrize("factor", [TwistFactor.THETA1, TwistFactor.THETA2,
                                        TwistFactor.THETA3])
    @pytest.mark.parametrize("rotation, t", [(1, 1 + 0j), (2, 0.5 + 0j), (-3, 1 + 0j)])
    def test_tangent_ladders_at_an_integer_centre(self, factor, rotation, t):
        # sin(pi w)/theta(w) is 1-periodic, so at w = n + x the quotient is
        # the one at x; dividing by the roundoff residue of sin(pi n) gave
        # coefficients near 1e33
        g = Generators(("z1",))
        b = FormalBundle(("z1",), (rotation,))
        got = ch_theta_twist(factor, b, t, gens=g, cap=4, q_order=3)
        oracle = ch_twist_oracle(factor, b, t, 3, g, 4)
        assert series_max_diff(got, oracle) < 1e-9
        at_zero = ch_theta_twist(factor, FormalBundle(("z1",), (0,)), 0j, gens=g, cap=4,
                                 q_order=3)
        largest = max(c.max_abs_coeff() for c in at_zero.terms.values())
        assert series_max_diff(got, at_zero) <= 1e-12 * largest

    @pytest.mark.parametrize("rotation, t", [(1, 0.5 + 0j), (2, 0.25 + 0j), (-3, 0.5 + 0j),
                                             (1, -0.5 + 0j)])
    def test_theta1_ladder_at_a_half_integer_centre(self, rotation, t):
        # theta1(w)/cos(pi w) = theta(w + 1/2)/sin(pi(w + 1/2)) is taken at
        # 0; dividing by the roundoff residue of cos(pi/2) gave a residual of
        # 5e35
        g = Generators(("z1",))
        b = FormalBundle(("z1",), (rotation,))
        got = ch_theta_twist(TwistFactor.THETA1, b, t, gens=g, cap=3, q_order=3)
        oracle = ch_twist_oracle(TwistFactor.THETA1, b, t, 3, g, 3)
        assert series_max_diff(got, oracle) < 1e-9

    def test_leading_term_of_every_ladder_is_one(self):
        g = Generators(("z1", "z2"))
        b = FormalBundle(("z1", "z2"))
        for factor in (TwistFactor.Q2V, TwistFactor.Q3V):
            oracle = ch_twist_oracle(factor, b, 0.17, 2, g, 2)
            assert poly_close(oracle.coeff(0), ChernPoly.one(g, 2), 1e-13)

    def test_half_integer_ladder_linear_term(self):
        # the first exterior rung contributes -ch of the reduced bundle
        g = Generators(("x1", "x2"))
        b = FormalBundle(("x1", "x2"))
        oracle = ch_twist_oracle(TwistFactor.THETA2, b, 0.0, 2, g, 2)
        coeff = oracle.coeff(Fraction(1, 2))
        reduced = ChernPoly.zero(g, 2)
        for name in ("x1", "x2"):
            reduced = (reduced + ChernPoly.generator(g, 2, name, TWO_PI_I).exp()
                       + ChernPoly.generator(g, 2, name, -TWO_PI_I).exp())
        reduced = reduced - 4
        assert poly_close(coeff, -reduced, 1e-12)

    def test_cost_guard(self):
        g = Generators(("z1",))
        with pytest.raises(CapacityError):
            ch_twist_oracle(TwistFactor.Q2V, FormalBundle(("z1",)), 0.0, 4, g, 2)


class TestTwistSpec:
    def test_single_phi0_class_factor(self):
        with pytest.raises(PreconditionError):
            TwistSpec((TwistFactor.PHI0, TwistFactor.PSI1))

    def test_phi_expansion(self):
        spec = TwistSpec((TwistFactor.PHI,))
        factors = [f for f, _ in spec.expanded()]
        assert factors == [TwistFactor.PHI0, TwistFactor.Q1V,
                           TwistFactor.Q2V, TwistFactor.Q3V]
        assert spec.v_theta_weight() == 3

    def test_psi_expansion_carries_exponent(self):
        spec = TwistSpec((TwistFactor.PSI2,), (3,))
        assert (TwistFactor.Q2V, 3) in spec.expanded()
        assert spec.v_theta_weight() == 3
