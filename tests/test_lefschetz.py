import glob
import json
import math
import os
from fractions import Fraction

import pytest

from conftest import PHI, PHI0, four_sphere_data, random_even_document
from pole_reference import reference_pole_scan

from ellrig.errors import (
    CapacityError,
    EllrigError,
    IgnoredDataWarning,
    PreconditionError,
    SchemaError,
    SingularFactorError,
)
from ellrig import lefschetz
from ellrig.lefschetz import (
    FixedComponentData,
    FixedPointData,
    anomaly_condition_check,
    load_document,
    component_anomaly,
    lefschetz_eval,
    modular_residual,
    permuted_twist,
    periodicity_residual,
    pole_scan,
    rigidity_sweep,
    translation_anomaly_check,
)
from ellrig.polynomial import ChernPoly
from ellrig.theta import TauPoint, ThetaKind, shift_factor, theta_zero_location
from ellrig.twist import OddMapData, TwistFactor, TwistSpec

TAU = TauPoint(0.13 + 0.9j)
T0 = 0.07 + 0.19j


DOCUMENT_PATHS = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "data", "*.json"))
    + glob.glob(os.path.join(os.path.dirname(__file__), "data", "*.json")))


def point_doc(value="1"):
    comp = FixedComponentData("pt", intersection={"1": value}, cap=0)
    return FixedPointData((comp,), k=1)


class TestEvaluation:
    def test_point_component_counts_the_three_summands(self):
        assert lefschetz_eval(point_doc(), PHI0, T0, TAU) == pytest.approx(3.0)

    def test_additivity_over_components(self):
        one = point_doc()
        two = FixedPointData(
            (FixedComponentData("a", intersection={"1": "1"}, cap=0),
             FixedComponentData("b", intersection={"1": "1"}, cap=0)),
            k=1,
        )
        v1 = lefschetz_eval(one, PHI0, T0, TAU)
        v2 = lefschetz_eval(two, PHI0, T0, TAU)
        assert v2 == pytest.approx(2 * v1)

    def test_functional_linearity(self, rng):
        doc = random_even_document(rng)
        scaled_components = []
        for comp in doc.components:
            scaled = {key: str(Fraction(val) * 7) for key, val in comp.intersection.items()}
            scaled_components.append(FixedComponentData(
                comp.name + "s", comp.tangent_roots,
                tuple((s + "s", m) for s, m in comp.normal),
                tuple((s + "s", n) for s, n in comp.v_fibers),
                (), scaled, comp.cap))
        doc7 = FixedPointData(tuple(scaled_components), k=doc.k)
        a = lefschetz_eval(doc, PHI, T0, TAU)
        b = lefschetz_eval(doc7, PHI, T0, TAU)
        assert abs(b - 7 * a) < 1e-9 * max(1.0, abs(b))

    def test_zero_rotation_integrand_is_t_independent(self):
        comp = FixedComponentData(
            "flat", tangent_roots=("y1", "y2"),
            v_fibers=(("z1", 0),),
            intersection={"y1^2": "1", "y1 y2": "2", "y2^2": "1"}, cap=2)
        doc = FixedPointData((comp,), k=1)
        vals = [lefschetz_eval(doc, PHI, t, TAU) for t in (0.1, 0.3 + 0.2j, 0.7j)]
        assert max(abs(v - vals[0]) for v in vals) < 1e-10

    def test_singularity_at_integer_parameter(self):
        comp = FixedComponentData("sing", normal=(("x1", 1),),
                                  intersection={"1": "1"}, cap=0)
        doc = FixedPointData((comp,), k=1)
        with pytest.raises(SingularFactorError) as err:
            lefschetz_eval(doc, PHI0, 0.0, TAU)
        assert err.value.component == "sing"

    def test_real_subbundle_roots_warn_and_are_inert(self):
        with pytest.warns(IgnoredDataWarning):
            comp = FixedComponentData(
                "w", normal=(("x1", 1),), v_real_roots=("z0",),
                intersection={"1": "1"}, cap=0)
        doc = FixedPointData((comp,), k=1)
        base = point_doc()
        with_fibre = lefschetz_eval(doc, PHI0, T0, TAU)
        plain = lefschetz_eval(
            FixedPointData((FixedComponentData(
                "w2", normal=(("x9", 1),), intersection={"1": "1"}, cap=0),), k=1),
            PHI0, T0, TAU)
        assert with_fibre == pytest.approx(plain)


class TestPeriodicity:
    def test_two_step_translation_on_random_documents(self, rng):
        for i in range(4):
            doc = random_even_document(rng, i)
            res = periodicity_residual(doc, PHI, T0, TAU, 2)
            assert res < 1e-8

    def test_odd_steps_rejected(self):
        with pytest.raises(PreconditionError):
            periodicity_residual(point_doc(), PHI0, T0, TAU, 1)

    def test_zero_rotation_fibers_have_unit_anomaly(self):
        comp = FixedComponentData("f0", normal=(("x1", 1),),
                                  v_fibers=(("z1", 0),),
                                  intersection={"1": "1"}, cap=0)
        doc = FixedPointData((comp,), k=1)
        mu = component_anomaly(doc.contexts[0], PHI, T0, TAU, 2).multiplier
        measured = (lefschetz_eval(doc, PHI, T0 + 2 * TAU.value, TAU)
                    / lefschetz_eval(doc, PHI, T0, TAU))
        assert mu == pytest.approx(1.0)
        assert abs(measured - 1.0) < 1e-8

    def test_anomaly_applied_residual_holds_without_conditions(self, rng):
        # the per-factor shift law is exact whether or not sum(n^2) vanishes
        for i in range(3):
            doc = random_even_document(rng, i, rotations=True)
            res = translation_anomaly_check(doc, PHI, T0, TAU, 2).residual
            shifted = abs(lefschetz_eval(doc, PHI, T0 + 2 * TAU.value, TAU))
            assert res < 1e-7 * max(1.0, shifted)

    def test_measured_ratio_matches_assembled_factor(self):
        # single-ladder twist keeps the anomaly modulus near one
        tau = TauPoint(0.45j)
        twist = TwistSpec((TwistFactor.PHI0, TwistFactor.Q2V))
        comp = FixedComponentData("r", normal=(("x1", 1),),
                                  v_fibers=(("z1", 1),),
                                  intersection={"1": "1"}, cap=0)
        doc = FixedPointData((comp,), k=1)
        t = 0.11 + 0.02j
        # |L(t + 2 tau) - mu L(t)| / |L(t)| is the defect of the ratio
        check = translation_anomaly_check(doc, twist, t, tau, 2)
        assert check.residual / abs(lefschetz_eval(doc, twist, t, tau)) < 1e-7
        mu = component_anomaly(doc.contexts[0], twist, t, tau, 2).multiplier
        assert abs(mu - 1.0) > 0.1  # the factor is genuinely nontrivial

    def test_assembled_factor_agrees_with_shift_law_product(self):
        tau = TauPoint(0.5j)
        twist = TwistSpec((TwistFactor.PHI0, TwistFactor.Q3V))
        comp = FixedComponentData("r", normal=(("x1", 1),),
                                  v_fibers=(("z1", 2),),
                                  intersection={"1": "1"}, cap=0)
        doc = FixedPointData((comp,), k=1)
        fac = component_anomaly(doc.contexts[0], twist, T0, tau, 2)
        # one theta3 factor at argument 2t shifted by 2*2*tau
        direct = shift_factor(ThetaKind.THETA3, 2 * T0, tau, 0, 4)
        assert abs(fac.multiplier - direct) < 1e-9 * abs(direct)


class TestAnomalyConditions:
    def test_trivial_rotations_pass(self):
        comp = FixedComponentData("c", normal=(("x1", 1),), v_fibers=(("z1", 0),),
                                  intersection={"1": "1"}, cap=0)
        rep = anomaly_condition_check(FixedPointData((comp,), k=1), "p1V=0")
        assert rep.passed
        assert rep.per_component[0][1] == 0 and rep.per_component[0][2] == 0

    def test_paired_rotations_on_one_class(self):
        # shared symbol with opposite rotations: linear part cancels exactly,
        # quadratic count does not
        comp = FixedComponentData(
            "c", tangent_roots=("y1",), v_fibers=(("z", 1), ("z", -1)),
            intersection={"y1": "1"}, cap=1)
        rep = anomaly_condition_check(FixedPointData((comp,), k=1), "3p1V=0")
        assert not rep.passed
        name, linear, quad = rep.per_component[0]
        assert linear == 0
        assert quad == 2

    def test_distinct_symbols_fail_the_linear_condition(self):
        comp = FixedComponentData(
            "c", tangent_roots=("y1",), v_fibers=(("z1", 1), ("z2", -1)),
            intersection={"y1": "1"}, cap=1)
        rep = anomaly_condition_check(FixedPointData((comp,), k=1), "p1V=0")
        assert rep.per_component[0][1] > 0

    def test_c3_flag(self):
        comp = FixedComponentData("c", normal=(("x1", 1),),
                                  intersection={"x1^3": "1"}, cap=3)
        doc = FixedPointData((comp,), k=1, parity="odd",
                             odd_map=OddMapData(8, c3_vanishes=True))
        assert anomaly_condition_check(doc, "c3E=0").passed
        live = FixedPointData((comp,), k=1, parity="odd", odd_map=OddMapData(8))
        assert not anomaly_condition_check(live, "c3E=0").passed


class TestModularity:
    def test_s_and_t_on_fiber_free_documents(self, rng):
        for i in range(3):
            doc = random_even_document(rng, i)
            for g, tol in (("T", 1e-8), ("S", 1e-7)):
                check = modular_residual(doc, PHI, T0, TAU, g)
                assert not check.skipped
                assert check.residual < tol
            s_check = modular_residual(doc, PHI, T0, TAU, "S")
            assert s_check.weight == 2 * doc.k

    def test_s_skips_when_conditions_fail(self, rng):
        doc = random_even_document(rng, 7, rotations=True)
        check = modular_residual(doc, PHI, T0, TAU, "S")
        assert check.skipped
        assert "condition" in check.reason

    def test_t_is_unconditional(self, rng):
        doc = random_even_document(rng, 8, rotations=True)
        check = modular_residual(doc, PHI, T0, TAU, "T")
        shifted = abs(lefschetz_eval(doc, PHI, T0, TauPoint(TAU.value + 1)))
        assert check.residual < 1e-7 * max(1.0, shifted)

    def test_bare_ladder_permutes_under_t(self):
        comp = FixedComponentData("c", normal=(("x1", 1),),
                                  v_fibers=(("z1", 0),),
                                  intersection={"1": "1"}, cap=0)
        doc = FixedPointData((comp,), k=1)
        spec = TwistSpec((TwistFactor.PHI0, TwistFactor.Q2V))
        check = modular_residual(doc, spec, T0, TAU, "T")
        assert check.residual < 1e-9


class TestOddDocuments:
    @staticmethod
    def odd_doc(c3_vanishes=False, cap=3):
        # under the S action a paired monomial of even degree d with one
        # T_{4i-1} generator scales by tau^(entries + d + 2i); the declared
        # k must match that total weight, and degrees 4i+1 have no clean law
        if c3_vanishes:
            keys, k = {"T7": "1", "x1^2 T5": "0"}, 3
        else:
            keys, k = {"T3": "1", "x1^3": "1/2"}, 2
        comp = FixedComponentData("odd", normal=(("x1", 1), ("x2", 1)),
                                  intersection=keys, cap=cap)
        return FixedPointData((comp,), k=k, parity="odd",
                              odd_map=OddMapData(8, c3_vanishes))

    def test_t_fixes_the_first_ladder_and_swaps_the_others(self):
        doc = self.odd_doc()
        for psi in (TwistFactor.PSI1, TwistFactor.PSI2, TwistFactor.PSI3):
            check = modular_residual(doc, TwistSpec((psi,)), T0, TAU, "T")
            assert check.residual < 1e-7

    def test_permutation_closure(self):
        doc = self.odd_doc()
        spec = TwistSpec((TwistFactor.PSI2,))
        tau2 = TauPoint(TAU.value + 2.0)
        lhs = lefschetz_eval(doc, spec, T0, tau2)
        rhs = lefschetz_eval(doc, spec, T0, TAU)
        assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(rhs))

    def test_odd_values_are_nonzero_with_live_degree_three_class(self):
        doc = self.odd_doc()
        val = lefschetz_eval(doc, TwistSpec((TwistFactor.PSI2,)), T0, TAU)
        assert abs(val) > 1e-8

    def test_s_relation_with_both_hypotheses(self):
        doc = self.odd_doc(c3_vanishes=True, cap=7)
        spec = TwistSpec((TwistFactor.PSI3,))
        check = modular_residual(doc, spec, T0, TAU, "S")
        assert not check.skipped
        lhs = lefschetz_eval(doc, spec, T0 / TAU.value,
                             TauPoint(-1.0 / TAU.value, 0.2))
        assert abs(lhs) > 1e-9      # the comparison is not vacuous
        assert check.residual < 1e-8

    def test_parity_schema(self):
        with pytest.raises(SchemaError):
            FixedPointData((FixedComponentData("c", intersection={"1": "1"}),),
                           k=1, parity="odd")

    def test_symbols_disjoint_across_components(self):
        a = FixedComponentData("a", normal=(("x1", 1),), intersection={"1": "1"})
        b = FixedComponentData("b", normal=(("x1", 2),), intersection={"1": "1"})
        with pytest.raises(SchemaError):
            FixedPointData((a, b), k=1)

    @pytest.mark.parametrize("value", ["1/0", "abc", 0.5, True])
    def test_bad_intersection_value_names_the_key(self, value):
        # "1/0" used to escape as a bare ZeroDivisionError, "abc" as ValueError
        with pytest.raises(SchemaError, match=r"component 'pt': intersection\[\"1\"\]"):
            FixedComponentData("pt", intersection={"1": value}, cap=0)

    def test_intersection_values_become_fractions(self):
        comp = FixedComponentData("pt", intersection={"1": "-2/6", "2": 3,
                                                      "3": Fraction(1, 7)}, cap=0)
        assert comp.intersection == {"1": Fraction(-1, 3), "2": Fraction(3),
                                     "3": Fraction(1, 7)}


class TestRigiditySweep:
    def test_four_sphere_model(self):
        data = four_sphere_data()
        grid = [0.03 * k + (0.11 + 0.02 * k) * 1j for k in range(10)]
        report = rigidity_sweep(data, PHI0, TAU, grid)
        assert report.passed
        assert report.max_deviation < 1e-6
        assert abs(report.mean) < 1e-10  # the model's function vanishes

    def test_single_chart_is_not_rigid(self):
        north = FixedComponentData("north", normal=(("x1", 1), ("x2", 1)),
                                   intersection={"1": "1"}, cap=0)
        data = FixedPointData((north,), k=1)
        grid = [0.05 * k + 0.13j for k in range(6)]
        report = rigidity_sweep(data, PHI0, TAU, grid)
        assert not report.passed

    def test_singular_points_are_recorded_not_fatal(self):
        data = four_sphere_data()
        grid = [0.0, 0.2 + 0.1j, 0.4 + 0.2j]  # t = 0 is a pole
        report = rigidity_sweep(data, PHI0, TAU, grid)
        assert report.singular_points == (0.0,)
        assert len([v for _, v in report.grid if v is not None]) == 2

    def test_point_document_deviation_zero(self):
        report = rigidity_sweep(point_doc(), PHI0, TAU, [0.1, 0.2 + 0.1j, 0.3])
        assert report.max_deviation < 1e-12


class TestPoles:
    def test_unit_rotation_pole_at_zero(self):
        comp = FixedComponentData("c", normal=(("x1", 1),),
                                  intersection={"1": "1"}, cap=0)
        doc = FixedPointData((comp,), k=1)
        hits = pole_scan(doc, PHI0, TAU, range(0, 2), range(0, 2), 1)
        assert any(h.k == 0 and abs(h.t) < 1e-12 for h in hits)

    def test_rotation_two_gives_half_integer_candidates(self):
        comp = FixedComponentData("c", normal=(("x1", 2),),
                                  intersection={"1": "1"}, cap=0)
        doc = FixedPointData((comp,), k=1)
        hits = pole_scan(doc, PHI0, TAU, range(0, 2), range(0, 3), 2)
        assert any(h.l == 2 and h.k == 1 and abs(h.t - 0.5) < 1e-12 for h in hits)

    @pytest.mark.parametrize("tau", [TAU, TauPoint(-0.37 + 0.71j), TauPoint(0.5 + 2.3j)])
    def test_lattice_points_are_the_zeros_the_float_test_finds(self, tau):
        comp = FixedComponentData("c", normal=(("x1", 1), ("x2", -2), ("x3", 3)),
                                  intersection={"1": "1"}, cap=0)
        doc = FixedPointData((comp,), k=1)
        hits = pole_scan(doc, PHI0, tau, range(-3, 4), range(-3, 4), 4)
        assert len(hits) > 50
        for h in hits:
            assert h.lattice == theta_zero_location(ThetaKind.THETA, h.rotation * h.t, tau)

    @pytest.mark.parametrize("path", DOCUMENT_PATHS, ids=os.path.basename)
    @pytest.mark.parametrize("tau", [TAU, TauPoint(-0.37 + 0.71j), TauPoint(0.5 + 2.3j)])
    @pytest.mark.parametrize("ranges", [(range(0, 3), range(-2, 3), 2),
                                        (range(-3, 4), range(-3, 4), 4)], ids=("cli", "wide"))
    def test_scan_matches_the_rounded_key_scan(self, path, tau, ranges):
        # the CLI's ranges, and wider ones; repr tells t bit for bit
        data, twist = load_document(path)
        hits = pole_scan(data, twist, tau, *ranges)
        reference = reference_pole_scan(data, tau, *ranges)
        assert [h._replace(t=repr(h.t)) for h in hits] == [
            h._replace(t=repr(h.t)) for h in reference]

    def test_zero_rotation_scan_is_empty(self):
        comp = FixedComponentData(
            "c", tangent_roots=("y1", "y2"),
            intersection={"y1^2": "1", "y1 y2": "0", "y2^2": "1"}, cap=2)
        doc = FixedPointData((comp,), k=1)
        assert pole_scan(doc, PHI0, TAU, range(0, 3), range(-2, 3), 2) == []


class TestFusedBlockDefinition:
    def test_phi0_equals_its_three_summands(self):
        """The fused block must match the literal sum it packages: the
        tangent-spinor times the integer ladder, plus 2^(pairs) times each
        half-integer ladder, all over the bare kernel."""
        from ellrig.characters import ch_delta
        from ellrig.lefschetz import assemble_integrand
        from ladder_reference import exponent_terms, ladder_by_ring_products, ring_of

        comp = FixedComponentData(
            "x", tangent_roots=("y1",), normal=(("w1", 1), ("w2", 2)),
            intersection={"y1": "1"}, cap=1)
        doc = FixedPointData((comp,), k=1)
        ctx = doc.contexts[0]
        t, tau = 0.11 + 0.17j, TauPoint(0.21 + 0.85j)

        fused = lefschetz_eval(doc, PHI0, t, tau)

        gens = ring_of(ctx)
        base = ChernPoly(gens, comp.cap, assemble_integrand(ctx, TwistSpec(()), t, tau))
        pairs = (("y1", 0), ("w1", 1), ("w2", 2))
        n_pairs = len(pairs)
        spinor = ch_delta(pairs, t, gens, comp.cap)
        summands = spinor * ladder_by_ring_products(
            TwistFactor.THETA1, pairs, t, tau, gens, comp.cap).value
        for ladder in (TwistFactor.THETA2, TwistFactor.THETA3):
            summands = summands + 2.0 ** n_pairs * ladder_by_ring_products(
                ladder, pairs, t, tau, gens, comp.cap).value
        manual = ctx.pair(exponent_terms(base * summands))
        assert abs(fused - manual) < 1e-10 * max(1.0, abs(fused))


class TestTangentLadders:
    COMP = FixedComponentData("c", tangent_roots=("y1",), normal=(("w1", 1), ("w2", 2)),
                              intersection={"y1^2": "1", "y1 w1": "1/2", "w2^2": "-1"}, cap=2)
    TAU = TauPoint(0.21 + 0.85j)

    def test_theta1_at_a_half_integer_centre_is_the_limit(self):
        # w2 + 2 t sits at 1/2 for t = 1/4: theta1(w)/cos(pi w) is taken as
        # theta(x)/sin(pi x), where the roundoff cosine gave 1e18
        doc = FixedPointData((self.COMP,), k=2)
        twist = TwistSpec((TwistFactor.THETA1,))
        value = lefschetz_eval(doc, twist, 0.25, self.TAU)

        def mean(h):
            return sum(lefschetz_eval(doc, twist, 0.25 + s, self.TAU) for s in (h, -h)) / 2
        # Richardson's limit of the means at +-h and +-2h, h = 3e-4: its
        # error is 1e-9 relative, and the roundoff near the centre is below it
        limit = (4 * mean(3e-4) - mean(6e-4)) / 3
        assert abs(value - limit) <= 1e-8 * abs(limit)

    def test_a_theta_zero_off_the_real_line_is_a_pole(self):
        # theta(w1 + tau) = 0 in the denominator of Theta2; without Phi0 the
        # bare kernel has no pole there, and the value used to be 1e63
        doc = FixedPointData((self.COMP,), k=2)
        twist = TwistSpec((TwistFactor.THETA2,))
        t = self.TAU.value
        with pytest.raises(SingularFactorError) as err:
            lefschetz_eval(doc, twist, t, self.TAU)
        assert (err.value.component, err.value.factor, err.value.t) == ("c", "theta(w1 + 1 t)", t)
        sweep = rigidity_sweep(doc, twist, self.TAU, [T0, t])
        assert sweep.singular_points == (t,) and sweep.grid[1] == (t, None)


class TestDeltaV:
    def test_document_power_matches_the_power_of_the_spinor_character(self):
        # DeltaV^2 as ch_delta(...) ** 2 on top of the Phi0 integrand
        from ellrig.characters import ch_delta
        from ellrig.lefschetz import assemble_integrand
        from ladder_reference import exponent_terms, ring_of

        comp = FixedComponentData(
            "d", tangent_roots=("y1",), normal=(("w1", 1),),
            v_fibers=(("z1", 1), ("z2", -2)),
            intersection={"y1": "1", "z1": "1/2", "z2": "-1/3"}, cap=1)
        doc = FixedPointData((comp,), k=1)
        ctx = doc.contexts[0]
        t, tau = 0.11 + 0.17j, TauPoint(0.21 + 0.85j)
        twist = TwistSpec((TwistFactor.PHI0, TwistFactor.DELTA_V), (1, 2))
        gens = ring_of(ctx)
        base = ChernPoly(gens, comp.cap, assemble_integrand(ctx, PHI0, t, tau))
        spinor = ch_delta(comp.v_fibers, t, gens, comp.cap)
        expected = ctx.pair(exponent_terms(base * spinor ** 2))
        value = lefschetz_eval(doc, twist, t, tau)
        assert abs(value - expected) <= 1e-12 * abs(expected)


class TestOddSConstants:
    def test_first_two_ladders_swap_with_the_spinor_rank(self):
        # with no fibers the swap constant reduces to 2^(N/2)
        comp = FixedComponentData("odd", normal=(("x1", 1), ("x2", 1)),
                                  intersection={"T7": "1"}, cap=7)
        doc = FixedPointData((comp,), k=3, parity="odd",
                             odd_map=OddMapData(8, c3_vanishes=True))
        for psi in (TwistFactor.PSI1, TwistFactor.PSI2):
            check = modular_residual(doc, TwistSpec((psi,)), T0, TAU, "S")
            assert not check.skipped
            assert check.residual < 1e-8
        c1 = modular_residual(doc, TwistSpec((TwistFactor.PSI1,)), T0, TAU, "S")
        c2 = modular_residual(doc, TwistSpec((TwistFactor.PSI2,)), T0, TAU, "S")
        assert c1.constant == pytest.approx(2.0 ** 4)
        assert c2.constant == pytest.approx(2.0 ** -4)
        # the relation genuinely needs the constant
        lhs = lefschetz_eval(doc, TwistSpec((TwistFactor.PSI1,)),
                             T0 / TAU.value, TauPoint(-1.0 / TAU.value, 0.2))
        rhs = TAU.value ** (2 * doc.k) * lefschetz_eval(
            doc, TwistSpec((TwistFactor.PSI2,)), T0, TAU)
        assert abs(lhs - rhs) > 10 * abs(lhs - 2.0 ** 4 * rhs)


class TestAnomalyFactorBookkeeping:
    def test_logged_exponents_match_the_multiplier(self):
        from ellrig.lefschetz import component_anomaly

        comp = FixedComponentData("c", normal=(("x1", 1),),
                                  v_fibers=(("z1", 2),),
                                  intersection={"1": "1"}, cap=0)
        doc = FixedPointData((comp,), k=1)
        fac = component_anomaly(doc.contexts[0], PHI, 0.1 + 0.05j,
                                TauPoint(0.5j), 2)
        import cmath as _cm

        total = sum(v for _, v in fac.exponent_log)
        assert abs(fac.multiplier - _cm.exp(total)) < 1e-12 * abs(fac.multiplier)
        assert not fac.root_coefficients  # cap 0 truncates the root terms

    def test_overflowing_multiplier_is_an_attributed_error(self):
        # exp of the summed exponents (real part ~808) is beyond a float
        comp = FixedComponentData("pt", v_fibers=(("z", 3), ("w", -3)),
                                  intersection={"1": "1"}, cap=0)
        doc = FixedPointData((comp,), k=1)
        with pytest.raises(EllrigError) as info:
            component_anomaly(doc.contexts[0], PHI, T0, TauPoint(1j), 2)
        assert "'pt'" in str(info.value)
        assert "t = %s" % T0 in str(info.value)


class TestZeroRotationFiberModularity:
    def test_s_holds_when_the_functional_skips_fiber_squares(self):
        # every component's tau-weight (normal entries plus cap) must equal
        # the declared 2k: 4 + 0 for the point, 2 + 2 for the surface
        point = FixedComponentData(
            "pt", normal=(("a1", 1), ("a2", -2), ("a3", 1), ("a4", 2)),
            v_fibers=(("u1", 0), ("u2", 0)), intersection={"1": "2"}, cap=0)
        four = FixedComponentData(
            "c4", tangent_roots=("y1", "y2"), normal=(("b1", 1), ("b2", 2)),
            v_fibers=(("z1", 0),),
            intersection={"y1^2": "1/3", "y1 y2": "1/2", "y2^2": "-1/5"}, cap=2)
        doc = FixedPointData((point, four), k=2)
        check = modular_residual(doc, PHI, T0, TAU, "S")
        assert not check.skipped
        assert check.residual < 1e-7

    def test_fiber_square_pairing_breaks_the_synthetic_law(self):
        # pairing the fiber-square class exposes the Gaussian the geometric
        # hypothesis would cancel; the engine reports the honest defect
        comp = FixedComponentData(
            "c4b", tangent_roots=("y3", "y4"), normal=(("c1", 1), ("c2", 2)),
            v_fibers=(("z2", 0),),
            intersection={"y3^2": "1/3", "y3 y4": "1/2", "y4^2": "-1/5",
                          "z2^2": "1"}, cap=2)
        doc = FixedPointData((comp,), k=2)
        check = modular_residual(doc, PHI, T0, TAU, "S")
        assert check.residual > 1.0


class TestWeightWarning:
    def test_mismatched_bookkeeping_warns_on_s(self):
        import pytest as _pytest

        from ellrig.errors import WeightMismatchWarning

        comp = FixedComponentData("lop", normal=(("x1", 1),),
                                  intersection={"1": "1"}, cap=0)
        doc = FixedPointData((comp,), k=1)   # weight 1 against 2k = 2
        with _pytest.warns(WeightMismatchWarning):
            modular_residual(doc, PHI, T0, TAU, "S")


class TestLadderPermutations:
    # the S and T images and the S constants written out by hand, apart from
    # the (family, j) roles they check; a factor of exponent e on l fibers
    # and an odd map of rank N has the S constant 2^(a e l + b N/2)
    T_SWAP = {"Q2V": "Q3V", "Q3V": "Q2V", "Theta2": "Theta3", "Theta3": "Theta2",
              "Psi2": "Psi3", "Psi3": "Psi2", "Q2E": "Q3E", "Q3E": "Q2E"}
    S_SWAP = {"Q1V": "Q2V", "Q2V": "Q1V", "Theta1": "Theta2", "Theta2": "Theta1",
              "Psi1": "Psi2", "Psi2": "Psi1", "Q1E": "Q2E", "Q2E": "Q1E"}
    S_CONSTANT = {"Q1V": (1, 0), "Q2V": (-1, 0), "Psi1": (1, 1), "Psi2": (-1, -1),
                  "Q1E": (0, 1), "Q2E": (0, -1)}
    L, N = 3, 10

    def doc(self):
        comp = FixedComponentData(
            "pt", normal=(("x1", 1),), v_fibers=(("w1", 1), ("w2", -1), ("w3", 0)),
            intersection={"1": "1"}, cap=0)
        return FixedPointData((comp,), k=1, parity="odd", odd_map=OddMapData(self.N))

    def image(self, factor, g):
        perm, _ = permuted_twist(TwistSpec((factor,)), g, self.doc())
        return perm.factors[0]

    @pytest.mark.parametrize("g", ["S", "T"])
    def test_images_of_all_fifteen_factors(self, g):
        swap = self.S_SWAP if g == "S" else self.T_SWAP
        for factor in TwistFactor:
            assert self.image(factor, g) is TwistFactor(swap.get(str(factor), str(factor)))
            assert self.image(self.image(factor, g), g) is factor

    @pytest.mark.parametrize("exponent", [1, 2, 3])
    def test_constants(self, exponent):
        for factor in TwistFactor:
            if factor in (TwistFactor.PHI0, TwistFactor.PHI) and exponent > 1:
                continue
            twist = TwistSpec((factor,), (exponent,))
            a, b = self.S_CONSTANT.get(str(factor), (0, 0))
            perm, const = permuted_twist(twist, "S", self.doc())
            assert perm.exponents == (exponent,)
            assert const == 2.0 ** (a * exponent * self.L + b * (self.N // 2))
            assert permuted_twist(twist, "T", self.doc())[1] == 1.0

    @pytest.mark.parametrize("factor, exponent, power, refused", [
        ("Psi1", 1, 1024, True), ("Psi2", 52, -1075, True), ("Q1E", 1, 1023, False),
        ("Psi2", 51, -1074, False)])
    def test_a_constant_out_of_float_range_is_a_capacity_error(self, factor, exponent, power,
                                                              refused):
        # 2^(e l + N/2) on one fiber at N = 2046: 2^1024 used to overflow
        # into a traceback, and 2^-1075 rounds to 0; 2^1023 and 2^-1074 are
        # doubles
        comp = FixedComponentData("pt", normal=(("x1", 1),), v_fibers=(("w1", 0),),
                                  intersection={"1": "1"}, cap=0)
        doc = FixedPointData((comp,), k=1, parity="odd", odd_map=OddMapData(2046))
        twist = TwistSpec((factor,), (exponent,))
        if refused:
            with pytest.raises(CapacityError, match=r"the S constant 2\^\(%d\) of %s "
                               "is out of float range" % (power, factor)):
                permuted_twist(twist, "S", doc)
        else:
            assert permuted_twist(twist, "S", doc)[1] == math.ldexp(1.0, power) != 0


@pytest.mark.parametrize("path", DOCUMENT_PATHS, ids=os.path.basename)
def test_each_functional_key_is_parsed_by_its_context_and_the_cap_inference(path, monkeypatch):
    # the component's context parses every key, and the loader parses the
    # keys of a component without degree_cap once more to infer the cap; no
    # parse is kept between the two (20 parses for the 14 keys of the four
    # demo documents)
    parsed = []
    parse = lefschetz.parse_monomial
    monkeypatch.setattr(lefschetz, "parse_monomial", lambda key: parsed.append(key) or parse(key))
    data, _ = load_document(path)
    with open(path) as fh:
        inferred = [key for comp in json.load(fh)["components"] if "degree_cap" not in comp
                    for key in comp.get("intersection", {})]
    keys = [key for comp in data.components for key in comp.intersection]
    assert sorted(parsed) == sorted(keys + inferred)
