"""Value semantics of the package's records.

Each record compares and hashes by its fields, against instances of its own
class only; its repr lists the fields; its constructor normalises and
validates what it is given; and nothing is assigned after construction.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from ellrig.characters import FormalBundle
from ellrig.errors import (
    DomainError,
    IgnoredDataWarning,
    PreconditionError,
    SchemaError,
)
from ellrig.lefschetz import (
    AnomalyFactor,
    ConditionReport,
    FixedComponentData,
    FixedPointData,
    LefschetzReport,
    ModularCheck,
    PoleHit,
    TranslationCheck,
)
from ellrig.theta import MoebiusMatrix, TauPoint
from ellrig.twist import OddMapData, TwistFactor, TwistSpec


def north():
    return FixedComponentData("north", tangent_roots=("y",), normal=(("x1", 1),),
                              v_fibers=(("z", 2),), intersection={"x1 y": 1, "z^2": "1/3"},
                              cap=2)


def pole_hit(**changes):
    fields = dict(t=0.5, k=1, l=2, c=0, d=1, component="n", symbol="x1", rotation=2,
                  lattice=(1, 0))
    fields.update(changes)
    return PoleHit(**fields)


NORTH_REPR = ("FixedComponentData(name='north', tangent_roots=('y',), normal=(('x1', 1),), "
              "v_fibers=(('z', 2),), v_real_roots=(), intersection={'x1 y': Fraction(1, 1), "
              "'z^2': Fraction(1, 3)}, cap=2)")

# (make, its exact repr)
REPRS = [
    (lambda: TauPoint(0.1 + 0.8j), "TauPoint(value=(0.1+0.8j), min_im=0.3)"),
    (lambda: MoebiusMatrix(0, -1, 1, 0), "MoebiusMatrix(a=0, b=-1, c=1, d=0)"),
    (lambda: TwistSpec(("Phi",)),
     "TwistSpec(factors=(<TwistFactor.PHI: 'Phi'>,), exponents=(1,))"),
    (lambda: TwistSpec(("Q1V", "Theta2"), (2, 1)),
     "TwistSpec(factors=(<TwistFactor.Q1V: 'Q1V'>, <TwistFactor.THETA2: 'Theta2'>), "
     "exponents=(2, 1))"),
    (lambda: FormalBundle(("y1", "y2"), (1, -2)),
     "FormalBundle(symbols=('y1', 'y2'), rotations=(1, -2), rank_offset=0)"),
    (lambda: FormalBundle(["w"], rank_offset=-2),
     "FormalBundle(symbols=('w',), rotations=(0,), rank_offset=-2)"),
    (lambda: OddMapData(8, c3_vanishes=True), "OddMapData(N=8, c3_vanishes=True)"),
    (north, NORTH_REPR),
    (lambda: FixedPointData((north(),), k=1),
     "FixedPointData(components=(%s,), k=1, parity='even', odd_map=None)" % NORTH_REPR),
    (lambda: AnomalyFactor(1.0, {}, ()),
     "AnomalyFactor(multiplier=1.0, root_coefficients={}, exponent_log=())"),
    (lambda: TranslationCheck(0.5, 2.0, 1j, 1 + 0j),
     "TranslationCheck(residual=0.5, scale=2.0, shifted=1j, expected=(1+0j))"),
    (lambda: ConditionReport("p1V=0", True, (("north", 0.0, 0),)),
     "ConditionReport(condition='p1V=0', passed=True, per_component=(('north', 0.0, 0),))"),
    (lambda: ModularCheck("S"),
     "ModularCheck(generator='S', residual=None, skipped=False, reason='', weight=0, "
     "constant=1.0)"),
    (lambda: ModularCheck("T", residual=1e-9, constant=1.0),
     "ModularCheck(generator='T', residual=1e-09, skipped=False, reason='', weight=0, "
     "constant=1.0)"),
    (lambda: LefschetzReport(),
     "LefschetzReport(grid=(), mean=0j, max_deviation=0.0, tolerance=1e-07, passed=True, "
     "singular_points=())"),
    (lambda: LefschetzReport(grid=((0.1j, 1 + 0j),), mean=1 + 0j),
     "LefschetzReport(grid=((0.1j, (1+0j)),), mean=(1+0j), max_deviation=0.0, "
     "tolerance=1e-07, passed=True, singular_points=())"),
    (pole_hit, "PoleHit(t=0.5, k=1, l=2, c=0, d=1, component='n', symbol='x1', rotation=2, "
               "lattice=(1, 0))"),
]


@pytest.mark.parametrize("make, text", REPRS, ids=[text.partition("(")[0] + str(i)
                                                   for i, (_, text) in enumerate(REPRS)])
def test_repr(make, text):
    assert repr(make()) == text


# (make, a record of the same class that differs in one field)
HASHABLE = [
    (lambda: TauPoint(0.1 + 0.8j), lambda: TauPoint(0.1 + 0.8j, 0.5)),
    (lambda: MoebiusMatrix(1, 1, 0, 1), lambda: MoebiusMatrix(1, -1, 0, 1)),
    (lambda: TwistSpec(("Q1V", "Theta2"), (2, 1)), lambda: TwistSpec(("Q1V", "Theta2"))),
    (lambda: FormalBundle(("y1",), (1,)), lambda: FormalBundle(("y1",), (1,), -2)),
    (lambda: OddMapData(8), lambda: OddMapData(8, True)),
    (lambda: TranslationCheck(0.5, 2.0, 1j, 1j), lambda: TranslationCheck(0.5, 3.0, 1j, 1j)),
    (lambda: ConditionReport("c3E=0", True, ()), lambda: ConditionReport("c3E=0", False, ())),
    (lambda: ModularCheck("S", residual=0.25), lambda: ModularCheck("S", residual=0.5)),
    (pole_hit, lambda: pole_hit(rotation=4)),
]


@pytest.mark.parametrize("make, other", HASHABLE)
def test_equal_and_hash_by_value(make, other):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other() and other() != a
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.copy(a) == a


@pytest.mark.parametrize("make", [lambda: TauPoint(1j),
                                  lambda: MoebiusMatrix(0, -1, 1, 0),
                                  lambda: TwistSpec(("Phi",)),
                                  lambda: OddMapData(4)])
def test_a_dict_key(make):
    table = {make(): "found"}
    assert table[make()] == "found"


def test_a_record_is_not_equal_to_its_fields():
    # only instances of one class compare by value; a tuple of the same
    # fields is another value
    assert MoebiusMatrix(1, 1, 0, 1) != (1, 1, 0, 1)
    assert OddMapData(8) != (8, False)
    assert TauPoint(1j) != 1j
    assert ModularCheck("S") != ModularCheck("T")


@pytest.mark.parametrize("make", [
    north,
    lambda: FixedPointData((north(),), k=1),
    lambda: AnomalyFactor(1.0, {"z": 1j}, ()),
])
def test_a_record_holding_a_dict_is_unhashable(make):
    assert make() == make()
    with pytest.raises(TypeError):
        hash(make())


@pytest.mark.parametrize("make, field", [
    (lambda: TauPoint(1j), "value"), (lambda: MoebiusMatrix(0, -1, 1, 0), "a"),
    (lambda: TwistSpec(("Phi",)), "exponents"), (lambda: FormalBundle(("w",)), "symbols"),
    (lambda: OddMapData(8), "N"), (north, "cap"),
    (lambda: FixedPointData((north(),), k=1), "k"),
    (lambda: AnomalyFactor(1.0, {}, ()), "multiplier"),
    (lambda: TranslationCheck(0.5, 2.0, 1j, 1j), "scale"),
    (lambda: ConditionReport("c3E=0", True, ()), "passed"),
    (lambda: ModularCheck("S"), "skipped"), (pole_hit, "t"),
])
def test_no_field_is_assigned_after_construction(make, field):
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before


def test_defaults_and_keywords():
    assert TauPoint(value=2j).min_im == 0.3
    assert MoebiusMatrix(a=2, b=1, c=1, d=1) == MoebiusMatrix(2, 1, 1, 1)
    assert TwistSpec(factors=[TwistFactor.Q2V, "Theta3"]).factors == (
        TwistFactor.Q2V, TwistFactor.THETA3)
    assert TwistSpec(("Q2V", "Theta3")).exponents == (1, 1)
    assert TwistSpec(("Q2V",), exponents=["3"]).exponents == (3,)
    bundle = FormalBundle(symbols=["a", "b"], rotations=["1", 2])
    assert (bundle.symbols, bundle.rotations, bundle.rank_offset) == (("a", "b"), (1, 2), 0)
    assert FormalBundle(("a", "b")).rotations == (0, 0)
    assert OddMapData(N=6).c3_vanishes is False
    comp = FixedComponentData(name="pt")
    assert (comp.tangent_roots, comp.normal, comp.v_fibers, comp.v_real_roots,
            comp.intersection, comp.cap) == ((), (), (), (), {}, 0)
    comp = FixedComponentData("c", tangent_roots=["y"], normal=[["x", "2"]],
                              v_fibers=[("z", -1.0)], intersection={"x y": "-2/4"}, cap=2)
    assert comp.tangent_roots == ("y",) and comp.normal == (("x", 2),)
    assert comp.v_fibers == (("z", -1),)
    assert comp.intersection == {"x y": Fraction(-1, 2)}
    assert type(comp.intersection["x y"]) is Fraction
    data = FixedPointData(components=[comp], k=2)
    assert (data.components, data.parity, data.odd_map) == ((comp,), "even", None)
    assert [ctx.comp for ctx in data.contexts] == [comp]
    odd = FixedPointData((), 1, parity="odd", odd_map=OddMapData(4))
    assert odd.contexts == ()
    check = ModularCheck(generator="T")
    assert (check.residual, check.skipped, check.reason, check.weight, check.constant) == (
        None, False, "", 0, 1.0)
    report = LefschetzReport(passed=False)
    assert (report.grid, report.mean, report.max_deviation, report.tolerance,
            report.singular_points) == ((), 0j, 0.0, 1e-7, ())
    assert TranslationCheck(residual=3.0, scale=2.0, shifted=0j,
                            expected=0j).relative_residual == 1.5
    assert ConditionReport(condition="p1V=0", passed=False, per_component=()).passed is False
    assert AnomalyFactor(multiplier=1.0, root_coefficients={}, exponent_log=()).multiplier == 1


def test_modular_check_is_not_a_tuple():
    # the CLI's Suite.check reads a tuple result as (residual, detail)
    assert not isinstance(ModularCheck("S", residual=0.0), tuple)


def test_pole_hit_replace():
    hit = pole_hit()
    moved = hit._replace(t="0.5", rotation=4)
    assert moved == pole_hit(t="0.5", rotation=4)
    assert hit.t == 0.5 and hit.rotation == 2
    assert (moved.k, moved.lattice) == (1, (1, 0))


@pytest.mark.parametrize("make, error, message", [
    (lambda: TauPoint(complex("nan")), DomainError, "tau = (nan+0j) is not finite"),
    (lambda: TauPoint(1j, 0.0), DomainError, "half-plane margin must be positive"),
    (lambda: TauPoint(0.2j), DomainError, "Im(tau) = 0.2 is below the configured margin 0.3"),
    (lambda: MoebiusMatrix(1, 1, 1, 1), DomainError,
     "matrix (1 1; 1 1) has determinant != 1"),
    (lambda: TwistSpec(("Q1V",), (1, 1)), PreconditionError,
     "one exponent per factor is required"),
    (lambda: TwistSpec(("Q1V",), (0,)), PreconditionError,
     "factor exponents must be positive integers"),
    (lambda: TwistSpec(("Phi", "Psi1")), PreconditionError,
     "at most one Phi0-class factor (Phi0, Phi, Psi_i) is allowed; it already bundles the "
     "three elliptic summands"),
    (lambda: TwistSpec(("Phi0",), (2,)), PreconditionError,
     "exponents target the fiber ladders; Phi0 takes exponent 1"),
    (lambda: TwistSpec(("Q4V",)), ValueError, "'Q4V' is not a valid TwistFactor"),
    (lambda: FormalBundle(("a", "b"), (1,)), PreconditionError,
     "one rotation per root symbol is required"),
    (lambda: OddMapData(3), PreconditionError,
     "the orthogonal rank N must be a positive even integer"),
    (lambda: OddMapData(0), PreconditionError,
     "the orthogonal rank N must be a positive even integer"),
    (lambda: FixedComponentData("c", normal=(("x", 0),)), SchemaError,
     "component 'c': normal piece 'x' has rotation 0; normal directions of a fixed set "
     "are rotated"),
    (lambda: FixedComponentData("c", intersection={"x": 0.5}), SchemaError,
     "component 'c': intersection[\"x\"] must be a rational (integer or \"p/q\" string), "
     "got 0.5"),
    (lambda: FixedComponentData("c", intersection={"x": "1/0"}), SchemaError,
     "component 'c': intersection[\"x\"] must be a rational, got '1/0'"),
    (lambda: FixedComponentData("c", intersection={"x": True}), SchemaError,
     "component 'c': intersection[\"x\"] must be a rational (integer or \"p/q\" string), "
     "got True"),
    (lambda: FixedPointData((), 1, parity="neither"), SchemaError,
     "parity must be 'even' or 'odd'"),
    (lambda: FixedPointData((), 1, parity="odd"), SchemaError,
     "odd_map must be present exactly for odd parity"),
    (lambda: FixedPointData((), 0), SchemaError, "the dimension parameter k must be positive"),
    (lambda: FixedPointData((north(), north()), 1), SchemaError,
     "symbol 'y' appears in more than one component; symbols must be disjoint"),
    (lambda: AnomalyFactor(2.0, {}, ()), PreconditionError,
     "anomaly multiplier does not match its logged exponents"),
])
def test_validation(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_ignored_real_roots_warn():
    with pytest.warns(IgnoredDataWarning) as caught:
        comp = FixedComponentData("c", v_real_roots=["r1"])
    assert [str(w.message) for w in caught] == [
        "component 'c': real-subbundle roots ('r1',) are accepted but ignored by every "
        "evaluation"]
    assert comp.v_real_roots == ("r1",)
