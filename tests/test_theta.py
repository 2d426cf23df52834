import cmath
import math
import warnings

import mpmath
import pytest

from conftest import random_tau

from ellrig.characters import theta_eval_regularized, theta_poly, theta_product, theta_qseries
from ellrig.errors import CapacityError, DomainError, DomainMarginWarning, PreconditionError
from ellrig.polynomial import ChernPoly, Generators
from ellrig.theta import (
    MAX_SERIES_TERMS,
    MoebiusMatrix,
    SERIES_TAIL,
    S_MATRIX,
    T_MATRIX,
    TauPoint,
    ThetaKind,
    jacobi_residual,
    moebius_act,
    s_prefactor,
    series_terms,
    shift_factor,
    st_transform_residual,
    st_transform_residuals,
    theta_derivative,
    theta_eval,
    theta_jet_coefficients,
    theta_jets,
    theta_prime_zero,
    theta_values,
    theta_zero_location,
)

KINDS = list(ThetaKind)


class TestTauPoint:
    def test_margin_enforced(self):
        with pytest.raises(DomainError):
            TauPoint(0.01j)
        TauPoint(0.01j, min_im=0.005)  # override per run

    def test_non_finite_tau_rejected(self):
        for value in (complex(1, math.nan), complex(math.nan, 1), complex(0, math.inf)):
            with pytest.raises(DomainError):
                TauPoint(value)

    def test_fractional_powers_come_from_tau(self):
        tau = TauPoint(1.3 + 0.9j)
        assert abs(tau.q_half() ** 2 - tau.q()) < 1e-15
        # the principal root of q would have the wrong sign here
        assert abs(tau.q_half() - cmath.sqrt(tau.q())) > 0.1


class TestThetaEval:
    def test_odd_theta_vanishes_at_zero(self):
        assert theta_eval(ThetaKind.THETA, 0.0, 0.5j) == 0

    def test_truncation_against_doubled_product(self):
        tau = TauPoint(1j)
        v1 = theta_eval(ThetaKind.THETA1, 0.0, tau)
        v2 = theta_product(ThetaKind.THETA1, 0.0, tau, terms=60)
        assert abs(v1 - v2) < 1e-12

    def test_jet_of_odd_theta_is_derivative_times_generator(self):
        gens = Generators(("x",))
        arg = ChernPoly.generator(gens, 1, "x")
        jet = theta_poly(ThetaKind.THETA, arg, 1j)
        assert jet.constant() == 0
        expected = theta_prime_zero(1j)
        assert abs(jet.coefficient({"x": 1}) - expected) < 1e-12

    def test_product_terms_precondition(self):
        with pytest.raises(PreconditionError):
            theta_product(ThetaKind.THETA, 0.1, 1j, terms=0)


# the three numeric routes: Fourier series (theta_poly), q-product
# (theta_product) and mpmath's jtheta; kinds map to jtheta's numbering
_JTHETA = {ThetaKind.THETA: 1, ThetaKind.THETA1: 2, ThetaKind.THETA2: 4,
           ThetaKind.THETA3: 3}
_ROUTE_TAUS = (0.3j, 0.41 + 0.3j, -0.2 + 0.8j, 0.45 + 1.5j)
_ROUTE_CENTRES = (0.0, 0.1 + 0.05j, 0.37 - 2.5j, -0.41 + 2.5j, 0.23 + 1.3j)
_ROUTE_CAP = 7


def _jet_coefficients(poly, cap=_ROUTE_CAP):
    return [poly.coefficient((k,)) for k in range(cap + 1)]


def _fourier_jet(kind, centre, tau):
    gens = Generators(("x",))
    arg = ChernPoly(gens, _ROUTE_CAP, {(0,): centre, (1,): 1.0})
    return _jet_coefficients(theta_poly(kind, arg, tau))


def _relative_gap(have, want):
    scale = max(abs(w) for w in want)
    return max(abs(h - w) for h, w in zip(have, want)) / scale


class TestSharedPass:
    """theta_jets sums the kinds of one lattice in one pass; each kind's
    coefficients must be those of a pass over that kind alone, bit for bit
    (repr tells signed zeros apart)."""

    @pytest.mark.parametrize("tau", _ROUTE_TAUS)
    @pytest.mark.parametrize("centre", _ROUTE_CENTRES + (
        complex(-0.0, 0.0), complex(0.0, -0.0), -0.5, 0.25 + 0.0j))
    def test_each_kind_as_if_alone(self, tau, centre):
        orders = (0, 1, 2, 5, 8)
        for kinds in (KINDS, KINDS[::-1], KINDS[1:], KINDS[:2], KINDS[2:], KINDS[1::2]):
            for order in orders:
                jets = theta_jets(kinds, centre, TauPoint(tau), order)
                alone = [theta_jet_coefficients(kind, centre, TauPoint(tau), order)
                         for kind in kinds]
                assert repr(jets) == repr(tuple(alone))


def _st_residual_alone(kind, v, tau, g):
    """The S or T law of one kind with each side from theta_eval, as the
    law was evaluated kind by kind."""
    t_new, tau_new = moebius_act({"S": S_MATRIX, "T": T_MATRIX}[g], v, tau)
    if g == "S":
        lhs = theta_eval(kind, t_new, tau_new)
        pref = s_prefactor(kind, tau) * cmath.exp(1j * cmath.pi * v * v / tau.value)
        return abs(lhs - pref * theta_eval(kind.s_image, v, tau))
    return abs(theta_eval(kind, v, tau_new) - kind.t_phase * theta_eval(kind.t_image, v, tau))


class TestAllKinds:
    """theta_values and st_transform_residuals serve the four kinds from one
    pass per point; each value and residual must be bit for bit that of the
    kind-by-kind route (repr tells signed zeros apart)."""

    # the images -1/tau of the last three lie below the margin 0.3
    BELOW_MARGIN = (4j, 0.2 + 5j, -0.45 + 3.5j)

    def points(self, rng):
        taus = [random_tau(rng) for _ in range(6)] + list(self.BELOW_MARGIN)
        for tau in taus:
            for v in [complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
                      for _ in range(3)] + [0.0, 0.25, complex(-0.0, 0.0), 1 - 0.5j]:
                yield TauPoint(tau), v

    def test_values_are_those_of_theta_eval(self, rng):
        for tau, v in self.points(rng):
            values = theta_values(v, tau)
            assert list(values) == KINDS
            assert repr(values) == repr({kind: theta_eval(kind, v, tau) for kind in KINDS})

    def test_residuals_are_those_of_each_kind_alone(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DomainMarginWarning)
            for tau, v in self.points(rng):
                at_v = theta_values(v, tau)
                for g in ("S", "T"):
                    want = [repr(_st_residual_alone(kind, v, tau, g)) for kind in KINDS]
                    for residuals in (st_transform_residuals(v, tau, g),
                                      st_transform_residuals(v, tau, g, at_v),
                                      st_transform_residuals(v, tau.value, g.lower())):
                        assert list(residuals) == KINDS
                        assert [repr(r) for r in residuals.values()] == want
                    assert [repr(st_transform_residual(kind, v, tau.value, g))
                            for kind in KINDS] == want

    def test_matrices_and_the_margin_warning(self):
        v = 0.23 + 0.11j
        assert st_transform_residuals(v, 1j, S_MATRIX) == st_transform_residuals(v, 1j, "S")
        assert st_transform_residuals(v, 1j, T_MATRIX) == st_transform_residuals(v, 1j, "T")
        with pytest.raises(PreconditionError):
            st_transform_residuals(v, 1j, MoebiusMatrix(1, 0, 1, 1))
        for tau in self.BELOW_MARGIN:
            with pytest.warns(DomainMarginWarning):
                residuals = st_transform_residuals(v, tau, "S")
            assert max(residuals.values()) < 1e-8


class TestThreeRoutes:
    @pytest.mark.parametrize("kind", KINDS, ids=str)
    def test_fourier_jet_matches_product(self, kind):
        gens = Generators(("x",))
        for tau in _ROUTE_TAUS:
            for centre in _ROUTE_CENTRES:
                arg = ChernPoly(gens, _ROUTE_CAP, {(0,): centre, (1,): 1.0})
                oracle = _jet_coefficients(theta_product(kind, arg, tau))
                gap = _relative_gap(_fourier_jet(kind, centre, tau), oracle)
                assert gap < 1e-12, (tau, centre, gap)

    @pytest.mark.parametrize("kind", KINDS, ids=str)
    def test_fourier_jet_matches_mpmath(self, kind):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for tau in _ROUTE_TAUS:
                nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
                for centre in _ROUTE_CENTRES:
                    z = mpmath.pi * mpmath.mpc(centre)
                    want = [complex(mpmath.pi ** k / mpmath.factorial(k)
                                    * mpmath.jtheta(_JTHETA[kind], z, nome, k))
                            for k in range(_ROUTE_CAP + 1)]
                    gap = _relative_gap(_fourier_jet(kind, centre, tau), want)
                    assert gap < 1e-12, (tau, centre, gap)

    def test_scalar_values_match_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for kind in KINDS:
                for tau in _ROUTE_TAUS:
                    nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
                    for centre in _ROUTE_CENTRES[1:]:
                        want = complex(mpmath.jtheta(_JTHETA[kind],
                                                     mpmath.pi * mpmath.mpc(centre), nome))
                        have = theta_eval(kind, centre, tau)
                        assert abs(have - want) < 1e-12 * abs(want), (kind, tau, centre)

    def test_scaled_generator_and_odd_generator(self):
        # a coefficient on the generator, and an odd generator whose square
        # vanishes, both against the product
        gens = Generators(("x", "T3"), weights=(1, 3), odd=(False, True))
        tau = 0.3 + 0.8j
        for kind in KINDS:
            for mono in ((1, 0), (0, 1)):
                arg = ChernPoly(gens, 7, {(0, 0): 0.2 - 0.1j, mono: 0.7 - 0.2j})
                diff = theta_poly(kind, arg, tau) - theta_product(kind, arg, tau)
                assert diff.max_abs_coeff() < 1e-13

    def test_regularized_is_the_shifted_jet(self):
        gens = Generators(("x",))
        tau = 0.3 + 0.8j
        jet = ChernPoly.generator(gens, _ROUTE_CAP, "x", 0.7 - 0.2j)
        regular = theta_eval_regularized(jet, tau)
        diff = regular * jet - theta_product(ThetaKind.THETA, jet, tau)
        assert diff.max_abs_coeff() < 1e-13
        zero = theta_eval_regularized(ChernPoly.zero(gens, _ROUTE_CAP), tau)
        assert zero == ChernPoly.scalar(gens, _ROUTE_CAP, theta_prime_zero(tau))
        assert abs(theta_prime_zero(tau) - regular.constant()) < 1e-15

    def test_two_term_nilpotent_part_rejected(self):
        gens = Generators(("x", "y"))
        two = ChernPoly.generator(gens, 3, "x") + ChernPoly.generator(gens, 3, "y")
        with pytest.raises(PreconditionError):
            theta_poly(ThetaKind.THETA1, two + 0.1, 1j)
        with pytest.raises(PreconditionError):
            theta_eval_regularized(two, 1j)

    def test_truncation_is_bounded(self):
        # the term count comes from the tail bound, so a modulus far too
        # close to the real axis is refused instead of summed for ever
        assert series_terms(ThetaKind.THETA, TauPoint(0.3j), 2.5, 7) < 40
        with pytest.raises(CapacityError):
            theta_eval(ThetaKind.THETA, 0.1, TauPoint(1e-12j, min_im=1e-13))
        with pytest.raises(DomainError):
            theta_eval(ThetaKind.THETA, complex(0.1, math.inf), 1j)


def _closed_form_need(kind, y, h, order):
    """mu_N - mu_0 of series_terms' docstring in its plain closed form,
    inf once y * L overflows (Im tau ~ 1e155 on lattice 1/2)."""
    s = h + (1.0 if order > 0 else 0.0)
    big_l = math.log(4.0 / SERIES_TAIL) + math.pi * y * kind.a * kind.a
    mu_r = (s + math.log(2.0) / (2 * math.pi)) / y - 0.5
    mu_q = (s + math.sqrt(s * s + y * big_l / math.pi)) / y
    return max(mu_r, mu_q) - kind.a


def _exact_need(kind, y, h, order):
    """The same bound in 60-digit arithmetic, which does not overflow."""
    with mpmath.workdps(60):
        y, h, mu0 = mpmath.mpf(y), mpmath.mpf(h), mpmath.mpf(kind.a)
        s = h + (1 if order > 0 else 0)
        big_l = mpmath.log(4 / mpmath.mpf(SERIES_TAIL)) + mpmath.pi * y * mu0 ** 2
        mu_r = (s + mpmath.log(2) / (2 * mpmath.pi)) / y - mpmath.mpf(1) / 2
        mu_q = (s + mpmath.sqrt(s * s + y * big_l / mpmath.pi)) / y
        return max(mu_r, mu_q) - mu0


class TestSeriesTermsBound:
    """series_terms on a grid of (Im tau, |Im c|, order): where the closed
    form is finite the count is the one it gives; where it overflowed (y * L
    from Im tau ~ 1e155 on lattice 1/2, or s * s), which used to refuse the
    sum as "needs more than 10000000 terms", the count is the exact bound's."""

    IM_TAUS = (1e-3, 0.3, 1.0, 60.0, 1e3, 1e100, 1e154, 1e155, 1e156, 1e200, 1e300, 1.7e308)
    IM_CENTRES = (0.0, 0.11, 60.0, 1e3, 1e150, 1e200, 1e300)

    @pytest.mark.parametrize("order", (0, 1, 4))
    @pytest.mark.parametrize("y", IM_TAUS)
    def test_grid(self, y, order):
        tau = TauPoint(complex(0.0, y), min_im=y)
        overflowed = 0
        for kind in KINDS:
            for h in self.IM_CENTRES:
                need = _closed_form_need(kind, y, h, order)
                exact = _exact_need(kind, y, h, order)
                if exact > MAX_SERIES_TERMS:
                    with pytest.raises(CapacityError, match="needs more than"):
                        series_terms(kind, tau, h, order)
                    continue
                count = series_terms(kind, tau, -h, order)
                # on the lattice mu = n, coefficients of order >= 1 start at n = 1
                floor = 2 if order > 0 and kind.a == 0 else 1
                if math.isfinite(need):
                    assert count == max(floor, math.ceil(need))
                else:
                    overflowed += 1
                    assert count == max(floor, int(mpmath.ceil(exact)))
                # the kept terms reach the bound: mu_N >= max(mu_r, mu_q)
                assert count >= exact
        # the grid reaches the rescaled form only where Im tau >= 1e155
        assert (overflowed > 0) == (y >= 1e155)

    @pytest.mark.parametrize("y", (1.0, 5.0, 16.0, 30.0))
    def test_even_kinds_keep_their_jets_at_zero(self, y):
        # on the lattice mu = n the coefficients of order >= 1 at 0 start at
        # the n = 1 term, so at large Im tau that term alone carries them:
        # each stays nonzero and matches mpmath to its own size
        tau = 0.3 + 1j * y
        with mpmath.workdps(40):
            nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
            for kind in (ThetaKind.THETA2, ThetaKind.THETA3):
                have = theta_jet_coefficients(kind, 0.0, TauPoint(tau), 4)
                for k in (0, 2, 4):
                    want = complex(mpmath.pi ** k / mpmath.factorial(k)
                                   * mpmath.jtheta(_JTHETA[kind], 0, nome, k))
                    assert want != 0
                    assert abs(have[k] - want) <= 1e-13 * abs(want), (kind, k)

    def test_one_term_at_huge_im_tau(self):
        # q^{1/8} underflows: theta and theta1 read 0, theta2 and theta3 1
        tau = TauPoint(1e200j)
        for kind in KINDS:
            assert series_terms(kind, tau, 0.11, 0) == 1
        assert list(theta_values(0.23 + 0.11j, tau).values()) == [0j, 0j, 1 + 0j, 1 + 0j]


class TestDerivatives:
    def test_zeroth_derivative_at_zero(self):
        assert theta_derivative(ThetaKind.THETA, 0, 0.0, 1j) == 0

    def test_even_kinds_have_flat_origin(self):
        for kind in (ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3):
            assert abs(theta_derivative(kind, 1, 0.0, 1j)) < 1e-12

    def test_against_central_differences(self):
        h = 1e-5
        tau = TauPoint(1j)
        fd = (theta_eval(ThetaKind.THETA, h, tau)
              - theta_eval(ThetaKind.THETA, -h, tau)) / (2 * h)
        assert abs(theta_derivative(ThetaKind.THETA, 1, 0.0, tau) - fd) < 1e-7

    def test_all_kinds_match_finite_differences(self, rng):
        h = 1e-5
        for kind in KINDS:
            tau = TauPoint(random_tau(rng))
            v = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))
            fd = (theta_eval(kind, v + h, tau) - theta_eval(kind, v - h, tau)) / (2 * h)
            assert abs(theta_derivative(kind, 1, v, tau) - fd) < 1e-6


class TestJacobiIdentity:
    def test_reference_points(self):
        assert jacobi_residual(1j) < 1e-10
        assert jacobi_residual(0.3 + 0.8j) < 1e-10

    def test_invariance_under_two_step_translation(self):
        tau = 0.4 + 0.9j
        assert abs(jacobi_residual(tau) - jacobi_residual(tau + 2)) < 1e-10

    def test_random_sample(self, rng):
        for _ in range(20):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
            assert jacobi_residual(tau) < 1e-10

    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, 0.2 + 40j])
    def test_defect_relative_to_min_of_one_and_theta_prime(self, tau):
        lhs = theta_prime_zero(tau)
        rhs = cmath.pi
        for kind in KINDS[1:]:
            rhs *= theta_eval(kind, 0.0, tau)
        assert jacobi_residual(tau) == abs(lhs - rhs) / min(1.0, abs(lhs))

    def test_a_wrong_value_fails_where_theta_prime_is_small(self, monkeypatch):
        # |theta'(0)| = 1.4e-13 at 40j, below the 1e-10 tolerance, so an
        # absolute defect passed whatever theta3(0) was
        from ellrig import theta

        values = theta._theta_values

        def off(c, tau, half=True, whole=True):
            odd, even1, even2, even3 = values(c, tau, half, whole)
            return odd, even1, even2, even3 * (1 + 1e-6)

        monkeypatch.setattr(theta, "_theta_values", off)
        tau = TauPoint(0.2 + 40j)
        assert abs(theta_prime_zero(tau)) < 1e-12
        assert jacobi_residual(tau) > 1e-7

    @pytest.mark.parametrize("tau", [1000j, 0.3 + 2000j, 1e200j])
    def test_underflow_at_zero_is_a_capacity_error(self, tau):
        # theta'(0) and theta1(0) underflow to 0 from Im tau ~ 950 on, where
        # the identity read 0 = 0 and passed
        with pytest.raises(CapacityError, match="underflow"):
            jacobi_residual(tau)


class TestShiftLaws:
    def test_integer_step_multipliers(self):
        tau = TauPoint(1j)
        assert shift_factor(ThetaKind.THETA, 0.3, tau, 1, 0) == -1
        assert shift_factor(ThetaKind.THETA1, 0.3, tau, 1, 0) == -1
        assert shift_factor(ThetaKind.THETA2, 0.3, tau, 1, 0) == 1
        assert shift_factor(ThetaKind.THETA3, 0.3, tau, 1, 0) == 1

    def test_single_tau_step_signs(self):
        # calibrated table: the odd theta and theta2 pick up the minus sign
        tau = TauPoint(0.2 + 0.8j)
        v = 0.17 + 0.05j
        base = cmath.exp(-2j * cmath.pi * v) / tau.q_half()
        signs = {ThetaKind.THETA: -1, ThetaKind.THETA1: 1,
                 ThetaKind.THETA2: -1, ThetaKind.THETA3: 1}
        for kind in KINDS:
            mu = shift_factor(kind, v, tau, 0, 1)
            direct = theta_eval(kind, v + tau.value, tau) / theta_eval(kind, v, tau)
            assert abs(mu - signs[kind] * base) < 1e-14
            assert abs(mu - direct) < 1e-10

    def test_double_tau_step_against_direct_ratio(self):
        tau = TauPoint(1j)
        v = 0.2
        mu = shift_factor(ThetaKind.THETA, v, tau, 0, 2)
        direct = theta_eval(ThetaKind.THETA, v + 2j, tau) / theta_eval(
            ThetaKind.THETA, v, tau)
        assert abs(mu - direct) < 1e-9

    def test_double_periodicity_with_explicit_factors(self, rng):
        for kind in KINDS:
            tau = TauPoint(random_tau(rng))
            v = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
            assert abs(theta_eval(kind, v + 2, tau)
                       - theta_eval(kind, v, tau)) < 1e-9
            mu = shift_factor(kind, v, tau, 0, 2)
            assert abs(theta_eval(kind, v + 2 * tau.value, tau)
                       - mu * theta_eval(kind, v, tau)) < 1e-9 * max(1.0, abs(mu))


class TestMoebius:
    def test_generator_actions(self):
        tau = TauPoint(1j)
        t, new = moebius_act(S_MATRIX, 0.3, tau)
        assert abs(t - 0.3 / 1j) < 1e-15
        assert abs(new.value - (-1 / 1j)) < 1e-15
        t, new = moebius_act(T_MATRIX, 0.3, tau)
        assert t == 0.3 and new.value == 1j + 1
        t, new = moebius_act(MoebiusMatrix(1, 0, 0, 1), 0.3, tau)
        assert t == 0.3 and new.value == 1j

    def test_determinant_enforced(self):
        with pytest.raises(DomainError):
            MoebiusMatrix(1, 1, 1, 1)


class TestTransformationLaws:
    def test_reference_point(self):
        assert st_transform_residual(ThetaKind.THETA3, 0.1, 1j, "S") < 1e-8

    def test_t_swaps_the_half_integer_kinds(self):
        tau = TauPoint(0.7j)
        v = 0.21 + 0.04j
        res = abs(theta_eval(ThetaKind.THETA2, v, tau.value + 1)
                  - theta_eval(ThetaKind.THETA3, v, tau))
        assert res < 1e-8

    def test_odd_theta_trivial_at_zero(self):
        assert st_transform_residual(ThetaKind.THETA, 0.0, 1j, "S") == 0

    def test_full_suite_random(self, rng):
        for _ in range(10):
            tau = TauPoint(random_tau(rng))
            v = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.15, 0.15))
            for kind in KINDS:
                assert st_transform_residual(kind, v, tau, "S") < 1e-8
                assert st_transform_residual(kind, v, tau, "T") < 1e-8

    def test_s_squared_roundtrip(self, rng):
        # composing the law at tau and at -1/tau lands on theta(-v, tau)
        for kind in KINDS:
            tau = TauPoint(random_tau(rng))
            v = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.1, 0.1))
            tau_s = tau.shifted(-1.0 / tau.value)
            pref = s_prefactor(kind, tau_s) * s_prefactor(kind.s_image, tau)
            lhs = theta_eval(kind, -v, tau)
            rhs = pref * theta_eval(kind, v, tau)
            assert abs(lhs - rhs) < 1e-8

    def test_prime_zero_weight(self):
        tau = TauPoint(0.8j)
        lhs = theta_prime_zero(tau.shifted(-1.0 / tau.value))
        rhs = (tau.value / 1j) ** 1.5 * theta_prime_zero(tau)
        assert abs(lhs - rhs) < 1e-9


class TestModularity:
    def test_derivative_two_thirds_power(self):
        # theta'(0, tau+1) picks up an eighth root of unity; the 2/3 power
        # on the principal branch gives the character exp(i pi/6)
        tau = TauPoint(1.5j)
        chi = cmath.exp(1j * cmath.pi / 6)
        lhs = theta_prime_zero(tau.shifted(tau.value + 1)) ** (2.0 / 3.0)
        assert abs(lhs - chi * theta_prime_zero(tau) ** (2.0 / 3.0)) < 1e-8


class TestZeroLattice:
    def test_zero_sets(self):
        tau = TauPoint(0.6 + 0.9j)
        assert theta_zero_location(ThetaKind.THETA, 2 + 3 * tau.value, tau) == (2, 3)
        assert theta_zero_location(ThetaKind.THETA1, 0.5 + tau.value, tau) == (0, 1)
        assert theta_zero_location(ThetaKind.THETA2, tau.value / 2, tau) == (0, 0)
        assert theta_zero_location(ThetaKind.THETA3, 0.5 + tau.value / 2, tau) == (0, 0)
        assert theta_zero_location(ThetaKind.THETA, 0.3, tau) is None

    def test_located_zeros_really_vanish(self):
        tau = TauPoint(0.6 + 0.9j)
        for kind, point in [
            (ThetaKind.THETA, 1 + tau.value),
            (ThetaKind.THETA1, 0.5),
            (ThetaKind.THETA2, tau.value / 2),
            (ThetaKind.THETA3, 0.5 + tau.value / 2),
        ]:
            assert abs(theta_eval(kind, point, tau)) < 1e-10


class TestFormalNumericConsistency:
    def test_qseries_evaluates_to_the_product(self, rng):
        for kind in KINDS:
            tau = TauPoint(complex(rng.uniform(-0.2, 0.2), rng.uniform(1.0, 1.4)))
            centre = complex(rng.uniform(-0.2, 0.2), rng.uniform(0.0, 0.1))
            series = theta_qseries(kind, centre, None, 12)
            direct = theta_eval(kind, centre, tau)
            assert abs(series.evaluate(tau.q()) - direct) < 1e-10

    def test_jet_coefficients_match_numeric_jets(self):
        gens = Generators(("x",))
        jet = ChernPoly.generator(gens, 2, "x")
        tau = TauPoint(1.1j)
        series = theta_qseries(ThetaKind.THETA3, 0.1, jet, 10)
        direct = theta_poly(ThetaKind.THETA3, jet + 0.1, tau)
        total = ChernPoly.zero(gens, 2)
        for e in series.support():
            total = total + series.coeff(e) * tau.q() ** (e.eighths / 8.0)
        assert (total - direct).max_abs_coeff() < 1e-10


# The per-kind tables that theta.py once stored literally; every fact is now
# derived from the characteristic (a, b) and must reproduce them, type included.
_T, _T1, _T2, _T3 = ThetaKind.THETA, ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3
_TRIG = {_T: "sin", _T1: "cos", _T2: None, _T3: None}
_SIGN = {_T: -1.0, _T1: 1.0, _T2: -1.0, _T3: 1.0}
_HALF = {_T: False, _T1: False, _T2: True, _T3: True}
_FOURIER = {_T: (0.5, True, True), _T1: (0.5, False, False),
            _T2: (0.0, True, False), _T3: (0.0, False, False)}
_ZERO_OFFSET = {_T: (0.0, 0.0), _T1: (0.5, 0.0), _T2: (0.0, 0.5), _T3: (0.5, 0.5)}
_SHIFT_SIGN_1 = {_T: -1.0, _T1: -1.0, _T2: 1.0, _T3: 1.0}
_SHIFT_SIGN_TAU = {_T: -1.0, _T1: 1.0, _T2: -1.0, _T3: 1.0}
S_PERM = {_T: _T, _T1: _T2, _T2: _T1, _T3: _T3}
T_PERM = {_T: _T, _T1: _T1, _T2: _T3, _T3: _T2}
T_PHASE = {_T: cmath.exp(1j * cmath.pi / 4), _T1: cmath.exp(1j * cmath.pi / 4),
           _T2: 1.0, _T3: 1.0}


def _identical(have, want):
    """Equal and of the same type, elementwise for tuples."""
    if isinstance(want, tuple):
        return (type(have) is tuple and len(have) == len(want)
                and all(_identical(h, w) for h, w in zip(have, want)))
    return type(have) is type(want) and have == want


class TestCharacteristics:
    @pytest.mark.parametrize("kind", KINDS, ids=str)
    def test_derived_data_match_the_literal_tables(self, kind):
        derived = {
            "trig": (kind.trig, _TRIG[kind]),
            "sign": (kind.sign_b, _SIGN[kind]),
            "half": (kind.half, _HALF[kind]),
            "fourier": ((kind.a, kind.alternating, kind.odd), _FOURIER[kind]),
            "zero offset": (kind.zero_offset, _ZERO_OFFSET[kind]),
            "shift 1": (kind.sign_a, _SHIFT_SIGN_1[kind]),
            "shift tau": (kind.sign_b, _SHIFT_SIGN_TAU[kind]),
            "t phase": (kind.t_phase, T_PHASE[kind]),
        }
        for name, (have, want) in derived.items():
            assert _identical(have, want), (name, have, want)
        assert kind.s_image is S_PERM[kind]
        assert kind.t_image is T_PERM[kind]

    def test_s_and_t_are_involutions(self):
        for kind in KINDS:
            assert kind.s_image.s_image is kind
            assert kind.t_image.t_image is kind

    def test_fixed_kinds(self):
        assert {k for k in KINDS if k.s_image is k} == {_T, _T3}
        assert {k for k in KINDS if k.t_image is k} == {_T, _T1}

    def test_only_theta_is_odd(self):
        assert [k for k in KINDS if k.odd] == [_T]

    def test_values_stay_plain_names(self):
        for kind, name in zip(KINDS, ("theta", "theta1", "theta2", "theta3")):
            assert kind.value == name and str(kind) == name
            assert ThetaKind(name) is kind
