"""Tests of the benchmark itself: inputs, validator, tracer, output contract.

    python3 -m pytest -q bench/tests
"""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import validate  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)


def _run_cli(op):
    from ellrig.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(op.argv))
    return code, out.getvalue()


def _taus(ops):
    return [arg for op in ops for arg in op.argv if arg.startswith(("--tau=", "--t="))]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_operations(workload):
    first = workloads.first_operations(workload, 7, 20)
    assert first == workloads.first_operations(workload, 7, 20)
    assert _taus(first) != _taus(workloads.first_operations(workload, 8, 20))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_value_is_attached_to_its_flag(workload):
    for op in workloads.first_operations(workload, 3, 30):
        for arg in op.argv[1:]:
            assert arg.startswith("--") and "=" in arg or arg.endswith(".json"), arg


def test_workload_names_match_the_contract():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)


def _golden(workload, index):
    with open(run.GOLDEN_PATH) as fh:
        return json.load(fh)[workload][index]


def test_validator_accepts_the_golden_run_and_rejects_a_perturbed_value():
    op = workloads.first_operations("theta-identities", workloads.DEFAULT_SEED, 1)[0]
    code, stdout = _run_cli(op)
    golden = _golden("theta-identities", 0)
    assert validate.judge(op, code, stdout, golden=golden)[0] == []

    moved = copy.deepcopy(golden)
    moved["values"]["/config/tau"][0] *= 1.001
    errors = validate.judge(op, code, stdout, golden=moved)[0]
    assert errors and errors[0].startswith("golden /config/tau")

    moved = copy.deepcopy(golden)
    moved["checks"][0][1] += 10 * moved["checks"][0][2]
    errors = validate.judge(op, code, stdout, golden=moved)[0]
    assert errors and errors[0].startswith("golden jacobi-derivative-identity")


def test_validator_rejects_a_failing_law():
    op = workloads.first_operations("theta-identities", 1, 1)[0]
    code, stdout = _run_cli(op)
    report = json.loads(stdout)
    report["checks"][3]["status"] = "fail"
    errors = validate.judge(op, 1, json.dumps(report))[0]
    assert len(errors) == 1 and errors[0].startswith("law ")


def test_validator_judges_the_expand_oracle_relative_to_the_largest_coefficient():
    op = workloads.first_operations("ladder-expand", 1, 1)[0]
    code, stdout = _run_cli(op)
    assert validate.judge(op, code, stdout)[0] == []
    report = json.loads(stdout)
    largest = max(validate._magnitude(row["value"]) for row in report["coefficients"])
    report["checks"][0]["residual"] = 1e-9 * largest
    errors = validate.judge(op, 1, json.dumps(report))[0]
    assert errors and errors[0].startswith("law oracle")


def test_validator_rejects_usage_errors_and_missing_tags():
    op = workloads.first_operations("theta-identities", 1, 1)[0]
    assert validate.judge(op, 2, "")[0] == ["exit code 2"]
    code, stdout = _run_cli(op)
    report = json.loads(stdout)
    report["checks"].pop()
    assert validate.judge(op, code, json.dumps(report))[0]


@pytest.mark.parametrize("malform", ["no coefficients", "a list"])
def test_a_malformed_report_counts_as_one_failed_operation(malform):
    op = workloads.first_operations("ladder-expand", 1, 1)[0]
    code, stdout = _run_cli(op)
    report = json.loads(stdout)
    del report["coefficients"]
    if malform == "a list":
        report = [report]

    def main(argv):
        print(json.dumps(report))
        return code

    loop = run.Loop(main, "ladder-expand", 1, None)
    loop.run_one(op)
    assert loop.attempted == 1 and len(loop.failures) == 1
    assert loop.failures[0][1][0].startswith("report malformed")


def test_tracer_wraps_every_binding_and_restores_them():
    import ellrig.characters
    import ellrig.cli
    import ellrig.theta
    from ellrig.polynomial import ChernPoly

    original = ellrig.theta.theta_eval
    with tracing.Tracer() as tracer:
        assert ellrig.characters.theta_eval is not original
        assert ellrig.cli.theta_eval is ellrig.theta.theta_eval is not original
        assert ChernPoly.__rmul__ is ChernPoly.__mul__
        assert ChernPoly.__mul__.__wrapped__ is not None
        op = workloads.first_operations("theta-identities", 1, 1)[0]
        tracer.begin_op(0)
        assert _run_cli(op)[0] == 0
        tracer.finish()
    assert ellrig.cli.theta_eval is ellrig.characters.theta_eval is original
    assert not hasattr(ChernPoly.__mul__, "__wrapped__")
    jet = tracer.stats["theta.theta_eval.jet"]
    assert jet.calls > 0 and 0 < jet.self_s <= jet.s
    assert 0 < jet.distinct <= jet.calls
    assert tracer.stats["polynomial.mul"].kept <= tracer.stats["polynomial.mul"].pairs
    assert {s[3] for s in tracer.spans} >= {"cli.build_parser", "cli.emit",
                                             "theta.theta_eval.scalar"}


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "theta-identities",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert any(line.split()[:3] == [metric["name"], "%.6g" % got["value"], metric["unit"]]
                   for line in lines[:-1]), metric["name"]


def test_run_refuses_a_tree_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "doc-verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
