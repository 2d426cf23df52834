import argparse
import collections
import contextlib
import csv
import enum
import io
import json
import math
import os
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellrig import characters, cli, lefschetz, theta
from ellrig.errors import PreconditionError, SchemaError
from ellrig.cli import build_parser, dumps_report, load_document, main
from ellrig.polynomial import ChernPoly
from ellrig.series import QSeries
from ellrig.theta import ThetaKind
from ellrig.twist import TwistFactor
from conftest import count_fourier_passes

# the terms of the unit polynomial 1
UNIT = {0: 1 + 0j}

DATA = os.path.join(os.path.dirname(__file__), "..", "demos", "data")
TEST_DATA = os.path.join(os.path.dirname(__file__), "data")


def doc_path(name):
    return os.path.join(DATA, name)


def write_doc(tmp_path, payload, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run_cli(*argv):
    """Run ``python -m ellrig.cli`` on argv in a fresh process."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "ellrig.cli", *argv],
                          capture_output=True, text=True, env=env)


class Label(str, enum.Enum):
    QUOTE = 'say "hi"'
    ACCENT = "caf\u00e9"


class Rank(enum.IntEnum):
    ONE = 1
    TWO = 2


class Text(str):
    pass


class Real(float):
    pass


class Pair(collections.namedtuple("Pair", "a b")):
    pass


FLOATS = st.floats(allow_nan=True, allow_infinity=True)
# quotes, backslashes, control characters, non-ASCII and astral characters
TEXT = st.text(st.one_of(st.sampled_from('"\\\b\f\n\r\t\x00\x1f\x7f/'),
                         st.characters()), max_size=8)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), FLOATS,
    st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 5e-324, math.nan, math.inf, -math.inf]),
    st.complex_numbers(allow_nan=True, allow_infinity=True), TEXT,
    st.sampled_from(list(ThetaKind) + list(TwistFactor) + list(Label) + list(Rank)),
    TEXT.map(Text), FLOATS.map(Real), st.builds(Pair, st.integers(), TEXT),
)
# keys JSON writes as their own text: str and int (an IntEnum among them)
REPORTS = st.recursive(LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(TEXT, children, max_size=4),
    st.dictionaries(TEXT.map(Text), children, max_size=3),
    st.dictionaries(st.integers(), children, max_size=3),
    st.dictionaries(st.sampled_from(list(Rank)), children, max_size=2),
    st.dictionaries(TEXT, children, max_size=3).map(collections.OrderedDict),
), max_leaves=30)


class TestThetaVerify:
    def test_default_suite_passes(self, capsys):
        assert main(["theta-verify"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["summary"]["fail"] == 0
        assert all(c["tag"] for c in report["checks"])

    def test_below_margin_tau_rejected(self, capsys):
        assert main(["theta-verify", "--tau", "0.01j"]) == 2

    @pytest.mark.parametrize("argv", [
        ["theta-verify"],
        ["rigidity", doc_path("four_sphere.json")],
        ["odd-check", doc_path("odd_rigid.json")],
    ])
    def test_empty_tau_list_is_a_vacuous_pass(self, argv, capsys):
        assert main(argv + ["--tau="]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"] == [] and report["config"]["tau"] == []
        assert report["warning"] == "empty tau list; vacuous pass"

    def test_deterministic_output(self, capsys):
        main(["theta-verify"])
        first = capsys.readouterr().out
        main(["theta-verify"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("tau", ["10j", "20j", "0.3+8j"])
    def test_shift_laws_judged_relative_to_the_value(self, tau, capsys):
        # theta grows like e^(pi Im tau); an absolute residual failed on roundoff
        assert main(["theta-verify", "--tau=" + tau]) == 0
        assert json.loads(capsys.readouterr().out)["summary"] == {
            "pass": 21, "fail": 0, "skip": 0}

    def test_csv_format(self, capsys):
        assert main(["theta-verify", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "tag,status,residual,tolerance,detail"
        assert all(",pass," in line for line in lines[1:])

    def test_one_fourier_pass_per_point_and_lattice(self, capsys, monkeypatch):
        # per tau: six points (v, v + 1, v + tau, -v, the S and the T image)
        # for all four kinds, two lattices each, plus the Jacobi identity's
        # jets at 0: one pass per lattice at order 0 and one for theta'(0),
        # 15 in all; each point used to be summed once per kind and law, and
        # each jet at 0 once per kind (16 per tau, 48 here)
        passes = {}
        count_fourier_passes(monkeypatch, passes, "lattice")
        assert main(["theta-verify", "--tau=1j,0.3+0.8j,-0.4+0.7j"]) == 0
        assert passes["lattice"] == 45
        assert len(json.loads(capsys.readouterr().out)["checks"]) == 3 * 21

    def test_theta_prime_is_summed_to_order_one(self, capsys, monkeypatch):
        # the engine reads theta'(0) from the longest jet at 0 its document
        # asks; theta-verify asks no longer one, so its one jet pass per tau
        # stays at order 1
        orders = []
        jet_sum = theta._jet_sum

        def recording(kinds, c, tau, order):
            orders.append(order)
            return jet_sum(kinds, c, tau, order)

        monkeypatch.setattr(theta, "_jet_sum", recording)
        assert main(["theta-verify", "--tau=1j,0.3+0.8j"]) == 0
        assert orders == [1, 1]

    def test_each_warning_is_one_line(self):
        # the S image of each tau is below the margin; each warning used to
        # be a Python warning block with a source path and line
        run = _run_cli("theta-verify", "--tau=5j,6j")
        assert run.returncode == 0
        assert json.loads(run.stdout)["summary"] == {"pass": 42, "fail": 0, "skip": 0}
        assert run.stderr.splitlines() == [
            "warning: DomainMarginWarning: transformed tau = 0.2j is below the margin 0.3",
            "warning: DomainMarginWarning: transformed tau = 0.16666666666666666j "
            "is below the margin 0.3"]
        assert ".py:" not in run.stderr

    @pytest.mark.parametrize("argv", [
        ["theta-verify", "--tau=60j"], ["theta-verify", "--tau=1j,100j"],
        ["theta-verify", "--tau=-0.2+80j"],
        ["rigidity", doc_path("odd_rigid.json"), "--tau=0.3+15j"],
        ["rigidity", doc_path("mixed_components.json"), "--tau=4j"],
    ])
    def test_overflowing_series_is_a_capacity_error(self, argv):
        # theta(v + tau) and the engine's thetas at t + 2 tau are summed at
        # the raw centre, where sin and cos of the terms leave float range;
        # each used to exit 1 with a traceback.  odd_rigid's odd factor
        # underflows to 0 from Im tau = 16 on, and a zero odd factor forms
        # no kernel, so it is taken at 15j, not at 30j
        run = _run_cli(*argv)
        assert run.returncode == 2
        assert "Traceback" not in run.stderr
        assert run.stderr.startswith("error: the theta series at the centre v = ")
        assert run.stderr.count("\n") == 1 and run.stdout == ""

    @pytest.mark.parametrize("path", [
        doc_path("four_sphere.json"), os.path.join(TEST_DATA, "fiber_ladders.json"),
        os.path.join(TEST_DATA, "ladders_without_phi0.json")], ids=os.path.basename)
    @pytest.mark.parametrize("tau", ["1000j", "1e200j"])
    def test_underflowing_theta_at_zero_is_a_capacity_error(self, path, tau):
        # theta'(0) and theta1(0) carry q^{1/8}, which underflows from
        # Im tau ~ 900 on: the Phi0 ratios and the ladders' 1/theta_k(0)
        # used to end at 1000j in a ZeroDivisionError traceback with exit 1
        run = _run_cli("rigidity", path, "--tau=" + tau)
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr == ("error: theta'(0) and theta1(0) underflow at tau = %s; "
                              "Im(tau) is too large\n" % complex(tau))

    @pytest.mark.parametrize("tau", ["1000j", "1e200j"])
    def test_theta_verify_refuses_an_underflowing_jacobi_identity(self, tau):
        # there the identity read 0 = pi 0 theta2(0) theta3(0) and passed,
        # and the run then ended on the overflow of theta(v + tau); at
        # 1e200j the term bound itself used to overflow, into "needs more
        # than 10000000 terms"
        run = _run_cli("theta-verify", "--tau=" + tau)
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr == ("error: theta'(0) and theta1(0) underflow at tau = %s; "
                              "Im(tau) is too large\n" % complex(tau))

    def test_an_overflowing_kernel_is_a_capacity_error(self):
        # at t + 2 tau the series of the surface's pairs and fibers stay in
        # range, and their products leave it; the translation law used to
        # report this as a skip, "non-finite coefficient at (0, 0, 0, 0, 0)"
        run = _run_cli("rigidity", os.path.join(TEST_DATA, "fiber_ladders.json"), "--tau=0.1+2.5j")
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr.startswith("error: the even kernel of component 'surface' at t = ")
        assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr


class TestExpand:
    def test_scalar_theta_expansion(self, capsys):
        assert main(["expand", "--factor", "theta2", "--q-order", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        coeffs = {row["exponent"]: row["value"] for row in report["coefficients"]}
        assert coeffs["0"] == [1, 0]
        assert coeffs["1/2"] == [-2, 0]

    def test_ladder_with_oracle_agreement(self, capsys):
        assert main(["expand", "--factor", "Q2V", "--symbols", "z1,z2",
                     "--q-order", "3", "--degree-cap", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        tags = [c["tag"] for c in report["checks"]]
        assert "ladder-oracle-agreement" in tags

    @pytest.mark.parametrize("factor, argv, code", [
        ("Q2V", ("--q-order", "4", "--degree-cap", "2"), 0),
        ("Q1V", ("--tol=1e-30",), 0),
        ("Q1V", ("--tol=1e-30", "--strict"), 1),
    ])
    def test_oracle_range_notice(self, factor, argv, code, capsys):
        # the default q^4 is above the oracle's q^3: the check is a skip
        # with the notice as its reason, so --strict exits 1
        assert main(["expand", "--factor=" + factor, "--symbols=z1", *argv]) == code
        report = json.loads(capsys.readouterr().out)
        assert report["notice"] == "oracle expansion is limited to q^(3); q^(4) requested"
        check, = report["checks"]
        assert check["tag"] == "ladder-oracle-agreement" and check["status"] == "skip"
        assert check["reason"] == report["notice"]
        assert check["detail"] == "factor=%s order=4" % factor
        assert report["summary"] == {"pass": 0, "fail": 0, "skip": 1}

    def test_an_unavailable_oracle_is_a_skip(self, monkeypatch, capsys):
        def unavailable(*args):
            raise PreconditionError("no oracle here")

        monkeypatch.setattr(characters, "ch_twist_oracle", unavailable)
        assert main(["expand", "--factor=Q2V", "--symbols=z1", "--q-order=3",
                     "--strict"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["notice"] == "oracle unavailable: no oracle here"
        check, = report["checks"]
        assert check["status"] == "skip" and check["reason"] == report["notice"]

    def test_rank_zero_input(self, capsys):
        assert main(["expand", "--factor", "Q3V", "--q-order", "2",
                     "--degree-cap", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        head = report["coefficients"][0]
        assert head["exponent"] == "0" and head["value"] == {"1": [1.0, 0.0]}

    @pytest.mark.parametrize("factor, series, exps, inverses, loops", [
        ("Q1V", 3, 16, 4, 19), ("Q2V", 3, 8, 4, 28), ("Q3V", 3, 8, 4, 28),
        ("Theta1", 5, 14, 18, 95), ("Theta2", 5, 14, 18, 112), ("Theta3", 5, 14, 18, 112),
        ("DeltaV", 0, 8, 0, 6),
    ])
    def test_work_per_expansion(self, factor, series, exps, inverses, loops, monkeypatch,
                                capsys):
        # theta_k(0) and theta'(0) once per expansion, not per fiber, and
        # theta_k(0) inverted once; the exponentials of a fiber shared by
        # its theta_k and theta series and its sin and cos; each root
        # exponential once for every oracle rung.  DeltaV's oracle builds
        # Delta(V) from four root exponentials, not from ch_delta.  A ring
        # product by the unit polynomial copies the other operand, so only
        # the products of two polynomials other than 1 run the pair loop.
        counts = collections.Counter()

        def counting(key, fn):
            def call(*args):
                counts[key] += 1
                return fn(*args)
            return call

        def product(a, b):
            if type(b) is ChernPoly and UNIT not in (a.terms, b.terms):
                counts["loops"] += 1
            return mul(a, b)

        mul = ChernPoly.__mul__
        monkeypatch.setattr(characters, "_theta_qseries",
                            counting("series", characters._theta_qseries))
        monkeypatch.setattr(ChernPoly, "exp", counting("exp", ChernPoly.exp))
        monkeypatch.setattr(QSeries, "inverse", counting("inverses", QSeries.inverse))
        monkeypatch.setattr(ChernPoly, "__mul__", product)
        monkeypatch.setattr(ChernPoly, "__rmul__", product)
        main(["expand", "--factor=" + factor, "--symbols=z1,z2", "--rotations=1,-1",
              "--t=0.11+0.07j", "--q-order=3", "--degree-cap=6"])
        assert (counts["series"], counts["exp"], counts["inverses"], counts["loops"]) == (
            series, exps, inverses, loops)
        assert json.loads(capsys.readouterr().out)["checks"][0]["residual"] < 1e-6

    def test_deltav_oracle_does_not_read_ch_delta(self, monkeypatch, capsys):
        # the oracle builds Delta(V) from root exponentials, so a wrong
        # ch_delta shows in the oracle check
        ch_delta = characters.ch_delta
        monkeypatch.setattr(characters, "ch_delta", lambda *args: ch_delta(*args) * 1.001)
        assert main(["expand", "--factor=DeltaV", "--symbols=z1,z2", "--rotations=1,-1",
                     "--t=0.11+0.07j", "--q-order=3", "--degree-cap=4"]) == 1
        check, = json.loads(capsys.readouterr().out)["checks"]
        assert check["tag"] == "ladder-oracle-agreement" and check["status"] == "fail"

    def test_unknown_factor(self):
        assert main(["expand", "--factor", "Q9V"]) == 2

    def test_overflowing_argument_is_a_capacity_error(self):
        # e(-v) at the centre v = 40 t of the formal q-series leaves float range
        run = _run_cli("expand", "--factor=Theta1", "--symbols=z1", "--rotations=40",
                       "--t=0.1+9j", "--q-order=3", "--degree-cap=2")
        assert run.returncode == 2
        assert run.stderr.startswith("error: ") and "v = (4+360j)" in run.stderr
        assert "Traceback" not in run.stderr

    @pytest.mark.parametrize("argv", [
        ("--factor=Theta3", "--symbols=z1", "--rotations=1", "--t=0+100j", "--q-order=2"),
        ("--factor=DeltaV", "--symbols=z1", "--rotations=1", "--t=1e308j")])
    def test_an_overflow_in_ring_arithmetic_is_a_capacity_error(self, argv):
        # a product of the formal series leaves float range; this used to
        # exit 1, the code of a failed identity
        run = _run_cli("expand", *argv)
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr == ("error: a ring operation overflowed: "
                              "non-finite coefficient at (0,)\n")

    # the factors the fixed-point engine assembles have no standalone
    # quotient; each used to exit 1 with a PreconditionError
    @pytest.mark.parametrize("factor", ["Phi0", "Phi", "Psi1", "Psi2", "Psi3",
                                        "Q1E", "Q2E", "Q3E"])
    def test_engine_factors_are_a_usage_error(self, factor, capsys):
        assert main(["expand", "--factor=" + factor, "--symbols=z1"]) == 2
        err = capsys.readouterr().err
        assert "argument --factor: %r" % factor in err
        assert "Traceback" not in err


class TestRigidity:
    def test_four_sphere_document_passes(self, capsys):
        assert main(["rigidity", doc_path("four_sphere.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        sweep_checks = [c for c in report["checks"] if c["tag"] == "rigidity-sweep"]
        assert sweep_checks and all(c["status"] == "pass" for c in sweep_checks)

    def test_missing_document(self):
        assert main(["rigidity", "/nonexistent/doc.json"]) == 2

    def test_malformed_document(self, tmp_path):
        path = write_doc(tmp_path, {"parity": "even"})
        assert main(["rigidity", path]) == 2

    def test_mixed_degree_keys_need_explicit_cap(self, tmp_path):
        path = write_doc(tmp_path, {
            "parity": "even", "k": 1,
            "components": [{"intersection": {"1": "1", "y1": "1"},
                            "tangent_roots": ["y1"]}],
        })
        assert main(["rigidity", path]) == 2

    def test_condition_failure_does_not_gate_exit(self, tmp_path, capsys):
        # cancelling pair of charts with identically rotated fibers: L = 0,
        # every unconditional law holds, the quadratic condition fails
        payload = {
            "parity": "even", "k": 1,
            "components": [
                {"name": "n", "normal": [{"symbol": "x1", "rotation": 1},
                                          {"symbol": "x2", "rotation": 1}],
                 "v_fibers": [{"symbol": "zn", "rotation": 1}],
                 "intersection": {"1": "1"}},
                {"name": "s", "normal": [{"symbol": "x3", "rotation": 1},
                                          {"symbol": "x4", "rotation": -1}],
                 "v_fibers": [{"symbol": "zs", "rotation": 1}],
                 "intersection": {"1": "1"}},
            ],
            "twist": {"factors": ["Phi"]},
        }
        path = write_doc(tmp_path, payload)
        assert main(["rigidity", path]) == 0
        report = json.loads(capsys.readouterr().out)
        by_tag = {}
        for c in report["checks"]:
            by_tag.setdefault(c["tag"], []).append(c)
        assert all(c["status"] == "fail" for c in by_tag["anomaly-conditions"])
        assert all(c["status"] == "pass" for c in by_tag["translation-periodicity"])
        assert all(c["status"] == "skip" for c in by_tag["modular-weight-S"])
        # strict mode promotes the skips and condition failures
        assert main(["rigidity", path, "--strict"]) == 1

    @pytest.mark.parametrize("command, name, jet_sums, pairs", [
        ("rigidity", "four_sphere.json", 45, 18),
        ("rigidity", "mixed_components.json", 102, 48),
        ("rigidity", "odd_live.json", 24, 8),
        ("rigidity", "odd_rigid.json", 30, 9),
        ("odd-check", "odd_live.json", 20, 3),
        ("odd-check", "odd_rigid.json", 22, 3),
    ])
    def test_work_per_command(self, command, name, jet_sums, pairs, monkeypatch):
        # one Fourier pass per lattice, jets at 0 staged per lattice and tau,
        # and each pair's series built once per command at the longest top
        # power asked, a shorter one read as its prefix.  Keyed by top power,
        # odd_live's x1 (top 2) and x2 (top 1) were built apart: (40, 16)
        # and (27, 6).  Summed per kind, with jets at 0 staged per kind and
        # order, and the pair series built per kernel, the counts were (84,
        # 36), (126, 57), (43, 16), (53, 18), (34, 6) and (37, 6).  odd-check
        # made one Fourier pass more, (21, 3) and (23, 3), when the engine's
        # odd characters were staged apart from those of the odd relations.
        # theta'(0) is read from the document's longest jet at 0, so the
        # lattice of theta is summed at 0 once per tau: mixed_components
        # and odd_rigid made 105 and 31 passes when theta'(0) was summed
        # to order 1 and a tangent root's jet or Psi1's odd character then
        # summed the lattice again.
        counts = collections.Counter()

        def counting(key, fn):
            def call(*args):
                counts[key] += 1
                return fn(*args)
            return call

        count_fourier_passes(monkeypatch, counts, "jet_sum")
        monkeypatch.setattr(lefschetz, "_pair_jets", counting("pairs", lefschetz._pair_jets))
        with contextlib.redirect_stdout(io.StringIO()):
            main([command, doc_path(name), "--tau=0.3+0.8j"])
        assert (counts["jet_sum"], counts["pairs"]) == (jet_sums, pairs)

    def test_non_rigid_document_fails(self, capsys):
        assert main(["rigidity", doc_path("mixed_components.json")]) == 1
        report = json.loads(capsys.readouterr().out)
        sweeps = [c for c in report["checks"] if c["tag"] == "rigidity-sweep"]
        assert any(c["status"] == "fail" for c in sweeps)
        others = [c for c in report["checks"]
                  if c["tag"] in ("translation-periodicity", "modular-weight-T",
                                   "modular-weight-S")]
        assert all(c["status"] == "pass" for c in others)


def _valid_doc():
    with open(doc_path("mixed_components.json")) as fh:
        return json.load(fh)


def _set_rotation(doc, value):
    doc["components"][0]["normal"][0]["rotation"] = value


def _drop_rotation(doc):
    del doc["components"][0]["normal"][0]["rotation"]


def _set_intersection(doc, value):
    doc["components"][1]["intersection"]["y1^2"] = value


def _set_normal(doc, value):
    doc["components"][0]["normal"] = value


def _set_top(key, value):
    def edit(doc):
        doc[key] = value
    return edit


class TestMalformedDocuments:
    def test_base_document_loads(self, tmp_path):
        data, _ = load_document(write_doc(tmp_path, _valid_doc()))
        assert [c.cap for c in data.components] == [0, 2]

    # each used to end in a traceback with exit 1, the identity-failure
    # code, or, for a key the schema does not define, to be dropped
    @pytest.mark.parametrize("edit, field", [
        (lambda d: _set_rotation(d, "abc"), "components[0].normal[0].rotation"),
        (_drop_rotation, "components[0].normal[0]"),
        (lambda d: _set_intersection(d, "1/0"), 'components[1].intersection["y1^2"]'),
        (lambda d: _set_normal(d, [5]), "components[0].normal[0]"),
        (_set_top("components", "oops"), "components"),
        (_set_top("k", "x"), "k"),
        (lambda d: _set_rotation(d, 1.5), "components[0].normal[0].rotation"),
        (lambda d: _set_intersection(d, "one third"), 'components[1].intersection["y1^2"]'),
        (_set_top("odd_map", {"c3_vanishes": True}), "odd_map"),
        (_set_top("twist", {"factors": "Phi"}), "twist.factors"),
        (_set_top("twists", {"factors": ["Phi0"]}), "twists is not a known key"),
        (lambda d: d["components"][1].update(normals=[]),
         "components[1].normals is not a known key"),
        (_set_top("odd_map", {"N": 8, "c3_vanish": True}), "odd_map.c3_vanish is not a known key"),
        (_set_top("twist", {"factors": ["Phi"], "exponent": [1]}),
         "twist.exponent is not a known key"),
        (lambda d: d["components"][0]["normal"][0].update(rotaton=2),
         "components[0].normal[0].rotaton is not a known key"),
    ], ids=["rotation-not-a-number", "rotation-missing", "intersection-zero-denominator",
            "normal-entry-not-an-object", "components-not-a-list", "k-not-a-number",
            "rotation-fractional", "intersection-not-a-rational", "odd-map-without-N",
            "twist-factors-not-a-list", "unknown-root-key", "unknown-component-key",
            "unknown-odd-map-key", "unknown-twist-key", "unknown-rotation-key"])
    def test_exit_two_naming_the_field(self, tmp_path, capsys, edit, field):
        doc = _valid_doc()
        edit(doc)
        assert main(["rigidity", write_doc(tmp_path, doc), "--tau=1j"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + field)
        assert "Traceback" not in err


    @pytest.mark.parametrize("factor", ["Q1E", "Psi2"])
    def test_odd_ladder_twist_needs_an_odd_map(self, tmp_path, capsys, factor):
        # this used to exit 1, the identity-failure code, from the engine
        with open(doc_path("four_sphere.json")) as fh:
            doc = json.load(fh)
        doc["twist"] = {"factors": [factor]}
        assert main(["rigidity", write_doc(tmp_path, doc), "--tau=1j"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: twist.factors: the odd ladders %s need an odd_map, "
                       "and the document has none\n" % factor)

    def test_a_root_named_like_a_trace_generator_weighs_one(self, tmp_path, capsys):
        # the cap used to weigh the declared root T3 by 3, so the key of
        # degree 2 read as degree 4 and the document exited 2
        doc = {"parity": "even", "k": 2, "twist": {"factors": ["Phi0"]}, "components": [{
            "name": "c", "tangent_roots": ["T3"],
            "normal": [{"symbol": "x1", "rotation": 1}, {"symbol": "x2", "rotation": 2}],
            "intersection": {"T3 x1": "1"}}]}
        path = write_doc(tmp_path, doc)
        assert load_document(path)[0].components[0].cap == 2
        assert main(["rigidity", path, "--tau=1j"]) in (0, 1)
        assert capsys.readouterr().err == ""

    def test_a_root_may_not_take_a_trace_generator_name(self, tmp_path, capsys):
        # this used to exit 2 on the ring's duplicate-name error, which
        # named neither the component nor the field
        doc = {"parity": "odd", "k": 2, "twist": {"factors": ["Psi2"]},
               "odd_map": {"N": 8, "c3_vanishes": True}, "components": [{
                   "name": "c", "tangent_roots": ["T1"],
                   "normal": [{"symbol": "x", "rotation": 1}],
                   "intersection": {"T1 x": "1"}}]}
        path = write_doc(tmp_path, doc)
        with pytest.raises(SchemaError, match="component 'c': root symbol 'T1'"):
            load_document(path)
        assert main(["rigidity", path, "--tau=1j"]) == 2
        assert capsys.readouterr().err == (
            "error: component 'c': root symbol 'T1' is also the name of an odd "
            "trace generator\n")

    def test_non_integer_power_with_explicit_cap(self, tmp_path, capsys):
        # the monomial parser used to let int() raise a bare ValueError here
        doc = _valid_doc()
        doc["components"][1].update(degree_cap=2, intersection={"y1^x": "1"})
        assert main(["rigidity", write_doc(tmp_path, doc), "--tau=1j"]) == 2
        assert "'y1^x'" in capsys.readouterr().err


class TestOddCheck:
    def test_c3_document_passes(self, capsys):
        assert main(["odd-check", doc_path("odd_rigid.json"),
                     "--degree-cap", "7"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["fail"] == 0
        tags = {c["tag"] for c in report["checks"]}
        assert any(t.startswith("odd-s-relation") and t.endswith("degree-7")
                   for t in tags)

    def test_live_degree_three_class_shows_the_defect(self, capsys):
        assert main(["odd-check", doc_path("odd_live.json"),
                     "--degree-cap", "3"]) == 1
        report = json.loads(capsys.readouterr().out)
        failures = [c for c in report["checks"] if c["status"] == "fail"]
        assert failures
        assert all(c["tag"].endswith("degree-3") for c in failures)

    def test_missing_odd_map(self):
        assert main(["odd-check", doc_path("four_sphere.json")]) == 2

    def test_odd_rank_rejected(self, tmp_path):
        payload = json.loads(open(doc_path("odd_rigid.json")).read())
        payload["odd_map"]["N"] = 7
        path = write_doc(tmp_path, payload)
        assert main(["odd-check", path]) == 2

    def test_capacity_guard(self):
        assert main(["odd-check", doc_path("odd_rigid.json"),
                     "--degree-cap", "2"]) == 2


def parsed(value):
    """What json.loads gives back for a value of a report: a complex number
    as its pair, a tuple as a list, a subclass of a JSON type as its base,
    any other object as its str(), and every key as text."""
    if isinstance(value, dict):
        return {str(int(key)) if isinstance(key, int) else str.__str__(key): parsed(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [parsed(item) for item in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    for base in (bool, int, float, str):
        if isinstance(value, base):
            return base(value) if base is not str else str.__str__(value)
    return value if value is None else str(value)


def assert_same(expected, got, path="report"):
    """Equal in structure and type, with every float the same bits (a NaN
    as a NaN)."""
    assert type(got) is type(expected), path
    if isinstance(expected, dict):
        assert sorted(got) == sorted(expected), path
        for key in expected:
            assert_same(expected[key], got[key], "%s[%r]" % (path, key))
    elif isinstance(expected, list):
        assert len(got) == len(expected), path
        for i, (x, y) in enumerate(zip(expected, got)):
            assert_same(x, y, "%s[%d]" % (path, i))
    elif isinstance(expected, float) and math.isnan(expected):
        assert math.isnan(got), path
    elif isinstance(expected, float):
        assert struct.pack("<d", got) == struct.pack("<d", expected), path
    else:
        assert got == expected, path


def written(report):
    """The text of a report and what json.loads gives back for it; every
    leaf must come back as parsed() says."""
    text = dumps_report(report)
    assert_same(parsed(report), json.loads(text))
    return text


def captured_report(monkeypatch, argv):
    """Run main on argv; the report it wrote and the text of that report."""
    reports = []
    dumps = cli.dumps_report
    monkeypatch.setattr(cli, "dumps_report", lambda report: reports.append(report) or dumps(report))
    main(argv)
    report, = reports
    return report, dumps(report)


class TestReportFormat:
    def test_floats_are_repr_text(self):
        text = dumps_report({"x": 0.1, "n": 3, "one": 1.0, "zero": -0.0, "flag": True})
        assert text == '{"flag": true, "n": 3, "one": 1.0, "x": 0.1, "zero": -0.0}\n'

    def test_sorted_keys(self):
        text = dumps_report({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')

    def test_complex_values_become_pairs(self):
        assert dumps_report({"z": 1 + 2j}).strip() == '{"z": [1.0, 2.0]}'

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(report=REPORTS)
    def test_every_leaf_parses_back(self, report):
        text = dumps_report(report)
        assert text.endswith("\n")
        assert_same(parsed(report), json.loads(text))

    @staticmethod
    def suite_records():
        """One record of each kind the Suite writes, by name."""
        suite = cli.Suite(argparse.Namespace())
        suite.add("law/pass", 1e-12, 1e-8, "tau=1j")
        suite.add("law/fail", 0.5, 1e-8, "tau=1j")
        suite.add_flag("flag", True, "tau=1j")

        def pole():
            raise cli.PreconditionError("needs an odd map")
        suite.check("law/skip", 1e-8, "tau=1j", pole)
        return dict(zip(("pass", "fail", "flag", "skip"), suite.checks))

    def test_suite_records_carry_no_params(self):
        records = self.suite_records()
        keys = {"tag", "status", "residual", "tolerance", "detail", "gates_exit"}
        assert {name: set(record) for name, record in records.items()} == {
            "pass": keys, "fail": keys, "flag": keys, "skip": keys | {"reason"}}

    def test_suite_records_parse_back(self):
        records = self.suite_records()
        assert records["skip"]["reason"] == "needs an odd map"
        for record in records.values():
            for report in (record, [record], {"checks": [record, record], "n": 2}):
                written(report)

    @pytest.mark.parametrize("change", [
        {"residual": None}, {"tolerance": None}, {"residual": 3}, {"tolerance": True},
        {"residual": Real(0.25)}, {"notes": {"t": 0.5j}}, {"notes": collections.OrderedDict()},
        {"detail": Text('tau="1j"')}, {"tag": Label.QUOTE}, {"status": None},
        {"gates_exit": 1}, {"reason": "extra key"}, {"a": 1, "z": [1.5, None]},
        {"detail": "caf\u00e9 \\ \n \U0001f600"}, {"residual": math.nan, "tolerance": -math.inf},
    ], ids=repr)
    def test_other_records_parse_back(self, change):
        record = {**self.suite_records()["pass"], **change}
        for report in (record, [record], {"checks": [record]}):
            written(report)

    @pytest.mark.parametrize("argv", [
        ["--factor=Theta2", "--symbols=z1,z2", "--rotations=1,-2", "--t=-0.1+0.2j",
         "--q-order=3", "--degree-cap=3"],
        ["--factor=theta3", "--q-order=5"]], ids=["ladder", "scalar"])
    def test_expand_rows_need_no_hook(self, argv, monkeypatch):
        report, text = captured_report(monkeypatch, ["expand", *argv])
        rows = report["coefficients"]
        assert len(rows) > 3
        # every coefficient is already its [real, imag] pair: plain JSON
        # writes the rows without the hook
        assert json.loads(json.dumps(rows)) == json.loads(text)["coefficients"]
        assert_same(parsed(report), json.loads(text))

    @pytest.mark.parametrize("value", [
        1 + 2j, complex(-0.0, math.nan), {}, {"z1 z2^2": complex(math.inf, -0.0)},
        {"z2": 1j, "1": 0.5 + 0j, "z1": complex(-1e-300, 5e-324)}], ids=repr)
    def test_edge_rows_parse_back(self, value):
        written([{"exponent": "3/2", "value": value}])

    @pytest.mark.parametrize("row", [
        {"exponent": "1", "value": 1.5}, {"exponent": "1", "value": {"z1": 2.0}},
        {"exponent": "1", "value": {"z1": 1j, "extra": None}},
        {"exponent": 1, "value": 1j}, {"exponent": Text("1"), "value": 1j},
        {"exponent": "1", "value": {Text("z1"): 1j}}, {"exponent": "1", "value": {1: 1j}},
        {"exponent": "1", "value": collections.OrderedDict(z1=1j)},
        {"exponent": "1", "value": [1j]}, {"exponent": "1"},
        {"exponent": "1", "value": 1j, "notice": "extra key"},
    ], ids=repr)
    def test_other_rows_parse_back(self, row):
        written({"coefficients": [row]})

    def test_pole_hits_parse_back(self, monkeypatch):
        argv = ["rigidity", doc_path("mixed_components.json"), "--tau=0.3+0.8j,1j"]
        report, text = captured_report(monkeypatch, argv)
        hits = [hit for p in json.loads(text)["poles"] for hit in p["hits"]]
        assert len(hits) > 10
        assert all(len(hit["t"]) == 2 and all(type(x) is float for x in hit["t"])
                   for hit in hits)
        assert_same(parsed(report), json.loads(text))

    HIT = {"t": 0.5 + 0.25j, "k": 1, "l": 2, "c": 1, "d": 0, "component": "n", "symbol": "x1"}

    @pytest.mark.parametrize("change", [
        {"t": complex(math.nan, -0.0)}, {"t": complex(-math.inf, 5e-324)},
        {"c": -2 ** 70, "component": "caf\u00e9 \"q\"", "symbol": "\n"},
    ], ids=repr)
    def test_edge_hits_parse_back(self, change):
        written([{**self.HIT, **change}])

    @pytest.mark.parametrize("change", [
        {"k": True}, {"c": Rank.ONE}, {"l": 2.0}, {"component": Text("n")},
        {"symbol": Label.QUOTE}, {"t": 0.5}, {"t": None}, {"rotation": 1},
    ], ids=repr)
    def test_other_hits_parse_back(self, change):
        hit = {**self.HIT, **change}
        written({"hits": [hit]})
        del hit["d"]
        written({"hits": [hit]})

    def test_csv_floats_are_the_json_text(self, capsys):
        argv = ["theta-verify", "--tau=0.3+0.8j"]
        main(argv + ["--format=csv"])
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        main(argv)
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [row[2:4] for row in rows] == [
            [repr(check["residual"]), repr(check["tolerance"])] for check in checks]


class TestAttributedSkips:
    """A check whose evaluation is undefined is a skip naming the component,
    the factor and t; the run still prints its report."""

    def reasons(self, capsys):
        return self.reasons_of(json.loads(capsys.readouterr().out))

    @staticmethod
    def reasons_of(report):
        return {c["tag"]: c["reason"] for c in report["checks"] if c["status"] == "skip"}

    def test_singular_grid_point(self, capsys):
        assert main(["rigidity", doc_path("four_sphere.json"), "--tau=1j",
                     "--t-grid=0,0.2"]) == 0
        reasons = self.reasons(capsys)
        for tag, t in (("translation-periodicity", "(2+0j)"),
                       ("translation-anomaly-law", "2j"), ("modular-weight-T", "0j"),
                       ("modular-weight-S", "0j")):
            assert reasons[tag].startswith(
                "component 'north-pole', factor theta(x1 + 1 t), t = %s: " % t)

    @pytest.mark.parametrize("name, grid, points", [
        ("four_sphere.json", "0", "0j"),
        ("mixed_components.json", "0,1", "0j, (1+0j)"),
    ])
    def test_all_singular_grid_still_reports(self, capsys, name, grid, points):
        # this used to print "error: every grid point was singular" and exit 1
        argv = ["rigidity", doc_path(name), "--t-grid=" + grid]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        report = json.loads(out)
        sweeps = [c for c in report["checks"] if c["tag"] == "rigidity-sweep"]
        assert len(sweeps) == len(report["config"]["tau"]) == len(report["sweeps"]) == 3
        for check in sweeps:
            assert check["status"] == "skip"
            assert check["reason"] == "every grid point is singular: t = " + points
        assert report["sweeps"] == [None, None, None]
        assert main(argv + ["--strict"]) == 1

    def test_unequal_fiber_counts(self, capsys, tmp_path):
        with open(os.path.join(TEST_DATA, "fiber_ladders_unrotated.json")) as fh:
            payload = json.load(fh)
        del payload["components"][1]["v_fibers"][1]
        assert main(["rigidity", write_doc(tmp_path, payload), "--tau=1j"]) == 1
        assert self.reasons(capsys) == {"modular-weight-S": (
            "components carry different fiber counts ('point': 2, 'surface': 1); the S "
            "constant 2^(e l) of Q1V, Q2V is not globally defined for this twist; "
            "at t = (0.07+0.19j)")}

    def test_odd_check_at_a_pole_skips_the_t_permutations(self, capsys):
        # t = 0 puts theta(x1 + t) of 'odd-model' on its zero; the
        # t-independent S relations still run
        assert main(["odd-check", doc_path("odd_rigid.json"), "--t=0", "--tau=1j"]) == 0
        report = json.loads(capsys.readouterr().out)
        reasons = self.reasons_of(report)
        assert sorted(reasons) == [
            "odd-ladder-t-permutation-closure", "odd-ladder-t-permutation/Psi1-fixed",
            "odd-ladder-t-permutation/Psi2-swap", "odd-ladder-t-permutation/Psi3-swap"]
        for reason in reasons.values():
            assert reason.startswith(
                "component 'odd-model', factor theta(x1 + 1 t), t = 0j: theta vanishes")
        s_relations = [c for c in report["checks"] if c["tag"].startswith("odd-s-relation")]
        assert len(s_relations) == 3
        assert all(c["status"] == "pass" for c in s_relations)
        assert main(["odd-check", doc_path("odd_rigid.json"), "--t=0", "--tau=1j",
                     "--strict"]) == 1


class TestParserReuse:
    ARGVS = (
        ["expand", "--factor=theta1", "--q-order=2"],
        ["expand", "--factor=Q1V", "--symbols=z1,z2", "--rotations=-1,2", "--t=0.1-0.2j",
         "--degree-cap=3", "--q-order=2", "--format=csv"],
        ["theta-verify", "--tau=1j,0.2+0.9j", "--tol=1e-6", "--strict"],
        ["expand", "--factor=Q1V", "--symbols=z1", "--q-order=2"],
        ["theta-verify", "--tau=1j"],
        ["odd-check", os.path.join(DATA, "odd_rigid.json"), "--tau=1j", "--t=0.1+0.1j"],
        ["odd-check", os.path.join(DATA, "odd_rigid.json"), "--tau=1j"],
        ["expand", "--factor=Q1V", "--rotations", "-1,2"],
        ["theta-verify", "--tau", "-0.3+0.8j"],
        ["rigidity"],
        ["expand", "--factor=Q1V", "--symbols=z1", "--q-order=2", "--tol=2e-9"],
    )

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        reused = []
        for argv in self.ARGVS:
            reused.append((main(list(argv)), capsys.readouterr()))
        assert len(built) == 1
        for argv, outcome in zip(self.ARGVS, reused):
            monkeypatch.setattr(cli, "_parser", None)
            assert (main(list(argv)), capsys.readouterr()) == outcome
        assert len(built) == 1 + len(self.ARGVS)
        # usage errors: two values that start with '-' given as separate
        # words, and a missing document
        assert [code for code, _ in reused[7:10]] == [2, 2, 2]

    def test_usage_names_the_equals_form(self):
        assert "--flag=value" in build_parser().format_help()


class TestDocumentLoader:
    def test_loads_twist_and_oddmap(self):
        data, twist = load_document(doc_path("odd_rigid.json"))
        assert data.parity == "odd"
        assert data.odd_map.N == 8
        assert str(twist.factors[0]) == "Psi2"

    def test_cap_derived_from_keys(self):
        data, _ = load_document(doc_path("four_sphere.json"))
        assert all(c.cap == 0 for c in data.components)


class TestOutputFile:
    def test_report_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["theta-verify", "--tau", "1j", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        report = json.loads(out.read_text())
        assert report["command"] == "theta-verify"

    @pytest.mark.parametrize("name, reason", [
        ("missing/report.json", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_an_unwritable_path_is_a_schema_error(self, tmp_path, capsys, name, reason):
        out = tmp_path / name
        assert main(["theta-verify", "--tau=1j", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot write %s: %s\n" % (out, reason)


class TestArgumentEdges:
    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_tolerance_override(self, capsys):
        # an absurdly tight tolerance flips the suite to failure
        assert main(["theta-verify", "--tau", "1j", "--tol", "1e-30"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["fail"] > 0

    @pytest.mark.parametrize("argv, message", [
        (["expand", "--factor=Q1V", "--symbols=z1", "--degree-cap=171", "--q-order=1"],
         "error: 1/171! is out of float range; lower the degree cap\n"),
        (["odd-check", doc_path("odd_rigid.json"), "--degree-cap=400"],
         "error: odd characters at degree cap 400 need (4 pi^2)^195, which is out of "
         "float range; lower the degree cap\n"),
        (["expand", "--factor=Q1V", "--symbols=z1", "--degree-cap=256", "--q-order=1"],
         "error: degree cap 256 is above 255, the largest exponent a monomial holds\n"),
    ], ids=["expand-cap-171", "odd-check-cap-400", "expand-cap-256"])
    def test_a_cap_out_of_float_or_field_range_is_a_capacity_error(self, argv, message):
        # the first two used to end in an OverflowError traceback and exit 1
        run = _run_cli(*argv)
        assert (run.returncode, run.stdout, run.stderr) == (2, "", message)

    @pytest.mark.parametrize("argv", [
        ["theta-verify", "--tau=1+nanj"],
        ["theta-verify", "--tau=nan+1j"],
        ["rigidity", doc_path("four_sphere.json"), "--t-grid=inf"],
    ], ids=["tau-nan-imag", "tau-nan-real", "t-grid-inf"])
    def test_non_finite_input_is_a_usage_error(self, argv, capsys):
        # each used to end in a traceback or exit 1; a series loop that
        # tested convergence would spin for ever on the first one
        assert main(argv) == 2
        assert argv[-1].split("=")[1] in capsys.readouterr().err

    # each flag's type checks its value, and a flag that a subcommand does
    # not read is not registered on it; each case used to end in a
    # traceback, exit 1, or a run that ignored the flag
    @pytest.mark.parametrize("argv, message", [
        (["odd-check", doc_path("odd_rigid.json"), "--t-grid=,"],
         "unrecognized arguments: --t-grid"),
        (["expand", "--factor=Q2V", "--symbols=z1", "--rotations=a"],
         "argument --rotations: 'a' is not an integer"),
        (["expand", "--factor=Q2V", "--t=abc"], "argument --t: cannot parse 'abc'"),
        (["expand", "--factor=Q2V", "--symbols=z1,z1"],
         "argument --symbols: symbols must be distinct"),
        (["expand", "--factor=Q2V", "--q-order=0"], "argument --q-order: must be >= 1"),
        (["expand", "--factor=Q2V", "--degree-cap=-1"],
         "argument --degree-cap: must be >= 0"),
        (["rigidity", doc_path("four_sphere.json"), "--q-order=99"],
         "unrecognized arguments: --q-order"),
        (["theta-verify", "--t-grid=x"], "unrecognized arguments: --t-grid"),
        (["expand", "--factor=theta2", "--degree-cap=5", "--symbols=z1", "--t=0.3",
          "--tol=1e-30"], "theta2 takes no ladder flags: --symbols, --t, --degree-cap, --tol"),
        (["expand", "--factor=theta", "--rotations=1"], "ladder flags: --rotations"),
        (["theta-verify", "--tau=1j", "--tol=nan"], "argument --tol: must be finite"),
        (["theta-verify", "--tau=1j", "--tol=inf"], "argument --tol: must be finite"),
        (["theta-verify", "--tau=1j", "--tol=-1e-9"],
         "argument --tol: must be finite and >= 0"),
        (["rigidity", doc_path("four_sphere.json"), "--tau=1j", "--sweep-tol=-1"],
         "argument --sweep-tol: must be finite and >= 0"),
        (["rigidity", doc_path("four_sphere.json"), "--sweep-tol=abc"],
         "argument --sweep-tol: 'abc' is not a number"),
    ], ids=["odd-check-t-grid", "expand-rotations", "expand-t", "expand-symbols-repeat",
            "expand-q-order-zero", "expand-degree-cap-negative", "rigidity-q-order",
            "theta-verify-t-grid", "expand-scalar-theta-ladder-flags",
            "expand-scalar-theta-rotations", "tol-nan", "tol-inf", "tol-negative",
            "sweep-tol-negative", "sweep-tol-not-a-number"])
    def test_bad_argv_is_a_usage_error(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


# one run per subcommand on a demo input
GUARD_RUNS = {
    "theta-verify": ["--tau=1j"],
    "expand": ["--factor=Q2V", "--symbols=z1,z2", "--rotations=1,-1", "--t=0.1+0.05j",
               "--q-order=2", "--degree-cap=2"],
    "rigidity": [doc_path("four_sphere.json"), "--tau=1j"],
    "odd-check": [doc_path("odd_rigid.json"), "--tau=1j", "--degree-cap=3"],
}


# runs beyond one per subcommand; the scalar-theta expand used to return
# before reading the ladder flags
EXTRA_GUARD_RUNS = {"expand-scalar-theta": ["expand", "--factor=theta2", "--q-order=2"]}


def _subcommands(parser):
    action, = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return set(action.choices)


class TestEveryFlagIsRead:
    def test_every_subcommand_has_a_run(self):
        assert _subcommands(build_parser()) == set(GUARD_RUNS)

    @pytest.mark.parametrize("command", sorted(GUARD_RUNS) + sorted(EXTRA_GUARD_RUNS))
    def test_registered_flags_are_read(self, command, capsys):
        argv = EXTRA_GUARD_RUNS.get(command) or [command] + GUARD_RUNS[command]
        args = build_parser().parse_args(argv)
        read = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        recording = Recording(**vars(args))
        assert recording.func(recording) in (0, 1)
        capsys.readouterr()
        unread = set(vars(args)) - {"func", "command"} - read
        assert not unread, "%s registers flags it never reads: %s" % (command, sorted(unread))
