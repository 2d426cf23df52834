import argparse
import json
import os

import pytest

from ellrig.cli import build_parser, dumps_report, load_document, main

DATA = os.path.join(os.path.dirname(__file__), "..", "demos", "data")


def doc_path(name):
    return os.path.join(DATA, name)


def write_doc(tmp_path, payload, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestThetaVerify:
    def test_default_suite_passes(self, capsys):
        assert main(["theta-verify"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["summary"]["fail"] == 0
        assert all(c["tag"] for c in report["checks"])

    def test_below_margin_tau_rejected(self, capsys):
        assert main(["theta-verify", "--tau", "0.01j"]) == 2

    def test_empty_tau_list_is_a_vacuous_pass(self, capsys):
        assert main(["theta-verify", "--tau", ""]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "warning" in report

    def test_deterministic_output(self, capsys):
        main(["theta-verify"])
        first = capsys.readouterr().out
        main(["theta-verify"])
        second = capsys.readouterr().out
        assert first == second

    def test_csv_format(self, capsys):
        assert main(["theta-verify", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "tag,status,residual,tolerance,detail"
        assert all(",pass," in line for line in lines[1:])


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

    def test_oracle_range_notice(self, capsys):
        assert main(["expand", "--factor", "Q2V", "--symbols", "z1",
                     "--q-order", "4", "--degree-cap", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "notice" in report
        assert report["checks"] == []

    def test_rank_zero_input(self, capsys):
        assert main(["expand", "--factor", "Q3V", "--q-order", "2",
                     "--degree-cap", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        head = report["coefficients"][0]
        assert head["exponent"] == "0" and head["value"] == {"1": [1.0, 0.0]}

    def test_unknown_factor(self):
        assert main(["expand", "--factor", "Q9V"]) == 2

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

    # each used to end in a traceback with exit 1, the identity-failure code
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
    ], ids=["rotation-not-a-number", "rotation-missing", "intersection-zero-denominator",
            "normal-entry-not-an-object", "components-not-a-list", "k-not-a-number",
            "rotation-fractional", "intersection-not-a-rational", "odd-map-without-N",
            "twist-factors-not-a-list"])
    def test_exit_two_naming_the_field(self, tmp_path, capsys, edit, field):
        doc = _valid_doc()
        edit(doc)
        assert main(["rigidity", write_doc(tmp_path, doc), "--tau=1j"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + field)
        assert "Traceback" not in err


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


class TestReportFormat:
    def test_floats_pinned_to_17_digits(self):
        text = dumps_report({"x": 0.1, "n": 3, "flag": True})
        assert '"x": 0.10000000000000001' in text

    def test_sorted_keys(self):
        text = dumps_report({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')

    def test_complex_values_become_pairs(self):
        assert dumps_report({"z": 1 + 2j}).strip() == '{"z": [1, 2]}'


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
