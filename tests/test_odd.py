import cmath
from fractions import Fraction

import numpy as np
import pytest

from ellrig.errors import CapacityError, PreconditionError
from ellrig.theta import THETA_KINDS, TauPoint, ThetaKind, theta_eval
from ellrig.twist import (
    OddMapData,
    log_derivative_coefficients,
    odd_ch_Q,
    odd_transform_residual,
    u_moment,
)


class TestUMoments:
    def test_first_values(self):
        assert u_moment(0) == 1
        assert u_moment(1) == Fraction(-1, 6)
        assert u_moment(2) == Fraction(1, 30)

    def test_against_quadrature(self):
        u = np.linspace(0.0, 1.0, 4097)
        for k in range(4):
            approx = np.trapezoid((u * u - u) ** k, u)
            assert abs(approx - float(u_moment(k))) < 1e-8


class TestOddMapData:
    def test_rank_must_be_even(self):
        with pytest.raises(PreconditionError):
            OddMapData(7)

    def test_spinor_rank_must_be_a_double(self):
        # 2^(N/2) is the j = 1 ladder's rank; from N = 2048 on it overflowed
        # inside odd_ch_Q
        assert OddMapData(2046).N == 2046
        with pytest.raises(CapacityError, match="N = 2048 is out of float range"):
            OddMapData(2048)

    def test_trace_generators(self):
        om = OddMapData(8)
        assert om.trace_generator_names(7) == ("T1", "T3", "T5", "T7")
        om0 = OddMapData(8, c3_vanishes=True)
        assert om0.trace_generator_names(7) == ("T1", "T5", "T7")


class TestOddCharacters:
    def test_linear_in_trace_generators(self):
        # one coefficient per trace generator, in trace-name order, zeros left out
        ch = odd_ch_Q(2, OddMapData(8), TauPoint(1j), cap=7)
        assert list(ch) == ["T3", "T7"]
        assert all(type(c) is complex and c != 0 for c in ch.values())

    def test_t1_coefficient_vanishes(self):
        # all three ladders use even theta kinds, whose log derivative is odd
        for j in (1, 2, 3):
            ch = odd_ch_Q(j, OddMapData(8), TauPoint(1j), cap=3)
            assert list(ch) == ["T3"]

    def test_spinor_rank_prefactor(self):
        tau = TauPoint(0.9j)
        c8 = odd_ch_Q(1, OddMapData(8), tau, cap=3)["T3"]
        c10 = odd_ch_Q(1, OddMapData(10), tau, cap=3)["T3"]
        assert abs(c10 / c8 - 2.0) < 1e-12

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            odd_ch_Q(2, OddMapData(8), TauPoint(1j), cap=2)

    def test_t3_coefficient_against_quadrature(self):
        """Independent oracle: finite differences for the log-derivative jet
        plus a 128-point quadrature for the u-integral."""
        tau = TauPoint(1j)
        h = 1e-4

        def f2(x):
            tp = (theta_eval(ThetaKind.THETA2, x + h, tau)
                  - theta_eval(ThetaKind.THETA2, x - h, tau)) / (2 * h)
            return tp / theta_eval(ThetaKind.THETA2, x, tau)

        a1 = (f2(h) - f2(-h)) / (2 * h)  # slope of theta2'/theta2 at 0
        u = np.linspace(0.0, 1.0, 129)
        w = np.ones(129)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0   # Simpson weights on 128 panels
        integral = (u[1] - u[0]) / 3.0 * float(np.sum(w * (u * u - u)))
        expected = -(1.0 / (8 * cmath.pi ** 2)) * a1 * integral / (4 * cmath.pi ** 2)
        got = odd_ch_Q(2, OddMapData(8), tau, cap=3)["T3"]
        assert abs(got - expected) < 1e-9

    @pytest.mark.parametrize("j", (2, 3))
    def test_large_im_tau_keeps_the_half_integer_ladders(self, j):
        # at Im tau = 30 the theta2/theta3 jets at 0 rest on one Fourier
        # term; the log-derivative coefficients match mpmath's series
        # quotient, and the character is not the zero one
        tau = TauPoint(0.3 + 30j)
        got = log_derivative_coefficients(THETA_KINDS[j], tau, 3)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau.value))
            jtheta = {2: 4, 3: 3}[j]
            c = [mpmath.pi ** m / mpmath.factorial(m) * mpmath.jtheta(jtheta, 0, nome, m)
                 for m in range(5)]
            want = []
            for m in range(4):
                want.append(((m + 1) * c[m + 1]
                             - sum(want[i] * c[m - i] for i in range(m))) / c[0])
        for k in (1, 3):
            assert abs(got[k] - complex(want[k])) <= 1e-13 * abs(complex(want[k]))
        assert list(odd_ch_Q(j, OddMapData(8), tau, cap=7)) == ["T3", "T7"]

    def test_t_action_pairs_the_ladders(self):
        tau = TauPoint(0.8j)
        shifted = TauPoint(tau.value + 1.0)
        a = odd_ch_Q(2, OddMapData(8), shifted, cap=7)
        b = odd_ch_Q(3, OddMapData(8), tau, cap=7)
        assert list(a) == list(b) == ["T3", "T7"]
        assert max(abs(a[n] - b[n]) for n in a) < 1e-8


class TestTransformRelations:
    def test_degree_three_under_the_vanishing_hypothesis(self):
        om = OddMapData(8, c3_vanishes=True)
        for pair in ((1, 2), (2, 1), (3, 3)):
            assert odd_transform_residual(pair, 1, TauPoint(1j), om, cap=3) < 1e-8

    def test_degree_three_defect_without_the_hypothesis(self):
        # the linear coefficient of the log derivative is quasi-modular:
        # without the degree-3 vanishing the relation fails by a fixed amount
        om = OddMapData(8)
        res = odd_transform_residual((3, 3), 1, TauPoint(1j), om, cap=3)
        expected = abs(2j * cmath.pi * 1j) * float(Fraction(1, 6)) / (
            8 * cmath.pi ** 2 * 4 * cmath.pi ** 2)
        assert res == pytest.approx(expected, rel=1e-6)

    def test_degree_seven_is_anomaly_free(self, rng):
        om = OddMapData(8)
        for pair in ((1, 2), (2, 1), (3, 3)):
            tau = TauPoint(complex(rng.uniform(-0.2, 0.2), rng.uniform(0.7, 1.2)))
            assert odd_transform_residual(pair, 2, tau, om, cap=7) < 1e-8

    def test_capacity_check(self):
        with pytest.raises(CapacityError):
            odd_transform_residual((1, 2), 2, TauPoint(1j), OddMapData(8), cap=3)

    def test_log_derivative_s_law(self):
        # a_{k}(-1/tau) = tau^{k+1} a'_{k}(tau) + 2 pi i tau [k = 1 only]
        tau = 0.2 + 0.9j
        a2 = log_derivative_coefficients(ThetaKind.THETA2, TauPoint(tau), 3)
        a1 = log_derivative_coefficients(ThetaKind.THETA1,
                                         TauPoint(-1.0 / tau, 0.2), 3)
        assert abs(a1[1] - (tau ** 2 * a2[1] + 2j * cmath.pi * tau)) < 1e-9
        assert abs(a1[3] - tau ** 4 * a2[3]) < 1e-9
