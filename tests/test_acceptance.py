"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured residual and runtime.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import time
from fractions import Fraction

import numpy as np

from conftest import PHI, PHI0, four_sphere_data, random_even_document, series_max_diff

from ellrig.characters import FormalBundle, ch_theta_twist, ch_twist_oracle
from ellrig.lefschetz import (
    FixedComponentData,
    FixedPointData,
    component_anomaly,
    lefschetz_eval,
    modular_residual,
    periodicity_residual,
    rigidity_sweep,
    translation_anomaly_check,
)
from ellrig.polynomial import Generators
from ellrig.series import qexp
from ellrig.theta import (
    TauPoint,
    ThetaKind,
    jacobi_residual,
    shift_factor,
    st_transform_residuals,
    theta_eval,
)
from ellrig.twist import OddMapData, TwistFactor, TwistSpec, odd_transform_residual


def report(name, worst, tol, elapsed, bound):
    status = "PASS" if worst <= tol and elapsed < bound else "FAIL"
    print("[%s] %-38s residual %.3e (tol %.0e)  %.2fs (< %gs)"
          % (status, name, worst, tol, elapsed, bound))
    assert worst <= tol, "%s: residual %.3e exceeds %.0e" % (name, worst, tol)
    assert elapsed < bound, "%s: runtime %.2fs exceeds %gs" % (name, elapsed, bound)


def test_jacobi_identity_random_sample():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
        worst = max(worst, jacobi_residual(tau))
    report("jacobi-derivative-identity", worst, 1e-10,
           time.perf_counter() - start, 1.0)


def test_theta_transformation_suite():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        tau = TauPoint(complex(rng.uniform(-0.35, 0.35), rng.uniform(0.5, 1.1)))
        v = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.15, 0.15))
        for kind in ThetaKind:
            lhs = theta_eval(kind, v + 1, tau)
            rhs = shift_factor(kind, v, tau, 1, 0) * theta_eval(kind, v, tau)
            worst = max(worst, abs(lhs - rhs))
            lhs = theta_eval(kind, v + tau.value, tau)
            rhs = shift_factor(kind, v, tau, 0, 1) * theta_eval(kind, v, tau)
            worst = max(worst, abs(lhs - rhs))
            worst = max(worst, st_transform_residuals(v, tau, "S")[kind])
            worst = max(worst, st_transform_residuals(v, tau, "T")[kind])
    report("theta-transformation-suite", worst, 1e-8,
           time.perf_counter() - start, 2.0)


def test_oracle_equivalence():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    worst = 0.0
    gens = Generators(("z1", "z2"))
    bundle = FormalBundle(("z1", "z2"))     # rank-4 real, zero rotations
    ladders = (TwistFactor.Q1V, TwistFactor.Q2V, TwistFactor.Q3V)
    for i in range(5):
        t = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.0, 0.2))
        factor = ladders[i % 3]
        quotient = ch_theta_twist(factor, bundle, t, gens=gens, cap=2, q_order=3)
        oracle = ch_twist_oracle(factor, bundle, t, 3, gens, 2)
        assert min(quotient.order, oracle.order).as_fraction() > 2
        worst = max(worst, series_max_diff(quotient, oracle,
                                           up_to=qexp(Fraction(17, 8))))
    report("ladder-oracle-equivalence", worst, 1e-9,
           time.perf_counter() - start, 10.0)


def test_unconditional_periodicity():
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    tau = TauPoint(0.13 + 0.9j)
    worst = 0.0
    for i in range(5):
        doc = random_even_document(rng, i)
        worst = max(worst, periodicity_residual(doc, PHI, 0.07 + 0.19j, tau, 2))
    report("two-step-translation-periodicity", worst, 1e-8,
           time.perf_counter() - start, 10.0)


def test_anomaly_factor_identity():
    # single-ladder twists keep the anomaly modulus near one; the factor is
    # assembled from the one-step shift laws, and |L(t + 2 tau) - mu L(t)|
    # over |L(t)| is the defect of the measured ratio L(t + 2 tau)/L(t)
    start = time.perf_counter()
    worst = 0.0
    twist = TwistSpec((TwistFactor.PHI0, TwistFactor.Q2V))
    cases = [
        (TauPoint(0.45j), (("z1", 1),), 0.11 + 0.02j),
        (TauPoint(0.05 + 0.4j), (("z2", 1), ("z2", -1)), 0.13 + 0.01j),
        (TauPoint(0.5j), (("z3", -1),), 0.21 + 0.015j),
    ]
    for tau, fibers, t in cases:
        comp = FixedComponentData("r", normal=(("x1", 1),), v_fibers=fibers,
                                  intersection={"1": "1"}, cap=0)
        doc = FixedPointData((comp,), k=1)
        mu = component_anomaly(doc.contexts[0], twist, t, tau, 2).multiplier
        assert abs(mu - 1.0) > 1e-3   # rotation-carrying: nontrivial factor
        check = translation_anomaly_check(doc, twist, t, tau, 2)
        worst = max(worst, check.residual / abs(lefschetz_eval(doc, twist, t, tau)))
    report("translation-anomaly-factor", worst, 1e-7,
           time.perf_counter() - start, 10.0)


def zero_rotation_fibered_document():
    """Zero-rotation fibers on both component types; the functional pairs
    only tangent monomials, so the fiber-square classes drop as the
    weight identity requires."""
    point = FixedComponentData(
        "pt", normal=(("a1", 1), ("a2", -2), ("a3", 1), ("a4", 2)),
        v_fibers=(("u1", 0), ("u2", 0)), intersection={"1": "2"}, cap=0)
    four = FixedComponentData(
        "c4", tangent_roots=("y1", "y2"), normal=(("b1", 1), ("b2", 2)),
        v_fibers=(("z1", 0),),
        intersection={"y1^2": "1/3", "y1 y2": "1/2", "y2^2": "-1/5"}, cap=2)
    return FixedPointData((point, four), k=2)


def test_modularity_weights():
    rng = np.random.default_rng(106)
    start = time.perf_counter()
    tau = TauPoint(0.13 + 0.9j)
    worst_t = worst_s = 0.0
    docs = [random_even_document(rng, i) for i in range(3)]   # fiber-free
    docs.append(zero_rotation_fibered_document())
    for doc in docs:
        t_check = modular_residual(doc, PHI, 0.07 + 0.19j, tau, "T")
        s_check = modular_residual(doc, PHI, 0.07 + 0.19j, tau, "S")
        assert not t_check.skipped and not s_check.skipped
        assert s_check.weight == 2 * doc.k
        worst_t = max(worst_t, t_check.residual)
        worst_s = max(worst_s, s_check.residual)
    elapsed = time.perf_counter() - start
    report("modular-weight-T", worst_t, 1e-8, elapsed, 10.0)
    report("modular-weight-S", worst_s, 1e-7, 0.0, 10.0)


def test_odd_permutation_structure():
    start = time.perf_counter()
    tau = TauPoint(0.13 + 0.9j)
    t0 = 0.07 + 0.19j

    # ladder permutation under T, non-vacuous: live degree-3 class
    live = FixedPointData(
        (FixedComponentData("odd", normal=(("x1", 1), ("x2", 1)),
                            intersection={"T3": "1", "x1^3": "1/2"}, cap=3),),
        k=2, parity="odd", odd_map=OddMapData(8))
    worst_perm = 0.0
    for psi in (TwistFactor.PSI1, TwistFactor.PSI2, TwistFactor.PSI3):
        check = modular_residual(live, TwistSpec((psi,)), t0, tau, "T")
        worst_perm = max(worst_perm, check.residual)
    assert abs(lefschetz_eval(live, TwistSpec((TwistFactor.PSI2,)), t0, tau)) > 1e-8

    # degree-3 transformation relations, N = 8, under the degree-3 vanishing
    # hypothesis the relations require (both sides' classes are then zero)
    om = OddMapData(8, c3_vanishes=True)
    worst_rel = 0.0
    for pair in ((1, 2), (2, 1), (3, 3)):
        worst_rel = max(worst_rel, odd_transform_residual(pair, 1, tau, om, cap=3))
    # the contentful anomaly-free degree is 7; check it live as well
    om_live = OddMapData(8)
    for pair in ((1, 2), (2, 1), (3, 3)):
        worst_rel = max(worst_rel,
                        odd_transform_residual(pair, 2, tau, om_live, cap=7))
    elapsed = time.perf_counter() - start
    report("odd-ladder-t-permutation", worst_perm, 1e-7, elapsed, 10.0)
    report("odd-transformation-relations", worst_rel, 1e-8, 0.0, 10.0)


def test_rigidity_smoke_four_sphere():
    start = time.perf_counter()
    data = four_sphere_data()
    tau = TauPoint(0.13 + 0.9j)
    grid = [0.03 * k + (0.11 + 0.02 * k) * 1j for k in range(10)]
    rep = rigidity_sweep(data, PHI0, tau, grid, tolerance=1e-6)
    assert rep.passed and not rep.singular_points
    report("four-sphere-rigidity-sweep", rep.max_deviation, 1e-6,
           time.perf_counter() - start, 5.0)
