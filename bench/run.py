"""ellrig benchmark: seeded CLI workloads, validated, timed end to end and by layer.

    python3 bench/run.py --workload doc-verify --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 36 --trace 0

One client drives ``ellrig.cli.main(argv)`` in this process, as a closed
loop: the next operation starts when the previous report has been written
to an in-memory sink and judged.  Timings are scaled to a reference host
speed (see hostspeed.py); the raw figures are printed beside them.

With ``--trace 0`` the run reports the end-to-end metrics.  With ``--trace
1`` it runs each cycle of operations untraced and then traced, reports the
per-layer metrics and the tracing overhead, and writes its spans to
``.bench_out/``.  ``--workload all`` runs every workload, each in a fresh
process.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 15
INTERPRETER_PROBES = 7
PROBE_TIMEOUT_S = 60

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import validate  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("op_s.p90", "s"),
    ("cpu_s_per_op", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metric -> (traced function, quantity); counts and times are per operation
PER_LAYER = {}
for _fn, _quantities in (
        ("polynomial.mul", ("calls", "self_s", "pairs", "kept_ratio")),
        ("polynomial.add", ("calls", "self_s")),
        ("polynomial.inverse", ("calls", "s")),
        ("polynomial.exp", ("calls", "s")),
        ("series.mul", ("calls", "self_s", "pairs")),
        ("series.inverse", ("calls", "self_s")),
        ("theta.theta_eval.scalar", ("calls", "self_s")),
        ("theta.theta_eval.jet", ("calls", "s", "self_s", "distinct_ratio")),
        ("theta.theta_eval", ("product_factors",)),
        ("theta.theta_eval_regularized", ("calls", "s")),
        ("theta.theta_qseries", ("calls", "s")),
        ("theta.theta_qseries_regularized", ("calls", "s")),
        ("characters.ch_theta_twist", ("calls", "s")),
        ("characters.ch_twist_oracle", ("calls", "s")),
        ("characters.ch_power_op", ("calls", "s")),
        ("characters.odd_ch_Q", ("calls", "s", "distinct_ratio")),
        ("lefschetz.lefschetz_eval", ("calls", "s", "distinct_ratio")),
        ("lefschetz.assemble_integrand", ("calls", "self_s")),
        ("lefschetz.rigidity_sweep", ("s",)),
        ("lefschetz.modular_residual", ("s",)),
        ("lefschetz.translation_anomaly_check", ("s",)),
        ("lefschetz.periodicity_residual", ("s",)),
        ("lefschetz.pole_scan", ("s",)),
        ("cli.main", ("s", "self_s")),
        ("cli.build_parser", ("s",)),
        ("cli.load_document", ("calls", "s")),
        ("cli.emit", ("s",))):
    for _q in _quantities:
        PER_LAYER["%s.%s" % (_fn, _q)] = (_fn, _q)
UNITS = {"calls": "calls/op", "s": "s/op", "self_s": "s/op", "pairs": "pairs/op",
         "product_factors": "factors/op", "kept_ratio": "ratio", "distinct_ratio": "ratio"}
# measured by the runner itself rather than by a traced function
RUN_METRICS = (
    ("setup.import_s", "s"),
    ("setup.interpreter_s", "s"),
    ("cli.main.exit_0", "share"),
    ("cli.main.exit_1", "share"),
    ("cli.main.exit_2", "share"),
    ("trace.ops_per_s.untraced", "1/s"),
    ("trace.ops_per_s.traced", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


class SetupError(RuntimeError):
    """The benchmark cannot start: no source tree, or a probe failed."""


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _probe(argv, probes, speed):
    """Run a fresh interpreter ``probes`` times.

    Returns (wall seconds, parsed last output line, (start, end)) each.
    """
    out = []
    for _ in range(probes):
        speed.sample()
        t0 = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        t1 = time.perf_counter()
        speed.sample()
        if done.returncode != 0:
            raise SetupError("set-up probe failed: %s" % done.stderr.strip()[-500:])
        lines = done.stdout.strip().splitlines()
        out.append((t1 - t0, json.loads(lines[-1]) if lines else None, (t0, t1)))
    return out


def _current_cpu():
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def _setup_probes(workload, seed, speed, with_interpreter=False):
    """Set-up samples at the reference host speed: name -> [seconds].

    ``setup_s`` and ``import_s`` are scaled by the calibration loop timed in
    each probe (see setup_probe.py); ``raw_setup_s`` is left unscaled.  A
    bare interpreter start is scaled by the samples this process takes
    around it, so the probes share this process's CPU.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {_current_cpu()})
    try:
        runs = _probe([sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), workload,
                       str(seed)], SETUP_PROBES, speed)
        interpreter = _probe([sys.executable, "-c", "pass"], INTERPRETER_PROBES,
                             speed) if with_interpreter else []
    finally:
        os.sched_setaffinity(0, cpus)
    for _, result, _ in runs:
        if not os.path.abspath(result["module"]).startswith(SRC + os.sep):
            raise SetupError("set-up probe imported ellrig from %s" % result["module"])
    out = {name: [hostspeed.scale(r[name], statistics.median(r["loop_s"])) for _, r, _ in runs]
           for name in ("setup_s", "import_s")}
    out["raw_setup_s"] = [r["setup_s"] for _, r, _ in runs]
    out["interpreter_s"] = [speed.scale(wall, *span) for wall, _, span in interpreter]
    return out


def _import_cli():
    if not os.path.isfile(os.path.join(SRC, "ellrig", "cli.py")):
        raise SetupError("no ellrig source tree under %s" % SRC)
    sys.path.insert(0, SRC)
    import ellrig.cli

    if not os.path.abspath(ellrig.cli.__file__).startswith(SRC + os.sep):
        raise SetupError("ellrig was imported from %s" % ellrig.cli.__file__)
    return ellrig.cli.main


class Loop:
    """Closed loop over one workload's operations; records and judges each."""

    def __init__(self, main, workload, seed, golden):
        self.main = main
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.speed = hostspeed.HostSpeed()
        self.c3_vanishes = {}
        for doc in workloads.documents(workload):
            with open(workloads.document_path(doc)) as fh:
                odd_map = json.load(fh).get("odd_map") or {}
            self.c3_vanishes[doc] = bool(odd_map.get("c3_vanishes", False))
        self.attempted = 0
        self.failures = []
        self.exit_codes = collections.Counter()
        self.honest = collections.Counter()

    def run_one(self, op):
        """Run and judge one operation; (wall s, cpu s, (start, end)) of it."""
        out, err = io.StringIO(), io.StringIO()
        self.speed.sample()
        spent = self.speed.spent
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(list(op.argv))
        except Exception:
            code = None
            crash = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        cpu1 = _cpu_s()
        inside = self.speed.spent - spent
        self.speed.sample()
        self.attempted += 1
        self.exit_codes[code] += 1
        if code is None:
            errors = ["exception: %s" % crash.strip().splitlines()[-1]]
        else:
            golden = None
            if self.golden is not None and op.index < len(self.golden):
                golden = self.golden[op.index]
            try:
                errors, honest, _ = validate.judge(
                    op, code, out.getvalue(), self.c3_vanishes.get(op.document, False), golden)
            except (KeyError, TypeError, AttributeError, IndexError, ValueError) as exc:
                errors, honest = ["report malformed: %r" % exc], []
            self.honest.update(honest)
        if errors:
            self.failures.append((op, errors, err.getvalue().strip()[-300:]))
        return t1 - t0 - inside, cpu1 - cpu0 - inside, (t0, t1)

    def run(self, seconds):
        """Run operations until ``seconds`` have passed; returns run_one's tuples."""
        times = []
        deadline = time.perf_counter() + seconds
        with self.speed:
            for op in workloads.operations(self.workload, self.seed):
                if times and time.perf_counter() >= deadline:
                    break
                times.append(self.run_one(op))
        return times


def whole_cycles(workload, times):
    """The leading operations that fill whole cycles (all of them if none does)."""
    cycle = workloads.cycle_length(workload)
    n = len(times) // cycle * cycle
    return times[:n] if n else times


def _scaled(samples, speed):
    """Scale (seconds, (start, end)) samples to the reference host speed."""
    return [speed.scale(s, *span) for s, span in samples]


def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(loop, times, setup):
    used = whole_cycles(loop.workload, times)
    cycle = workloads.cycle_length(loop.workload)
    scaled = _scaled([(w, span) for w, _, span in used], loop.speed)
    walls = sorted(scaled)
    cpus = _scaled([(c, span) for _, c, span in used], loop.speed)
    raw = sorted(w for w, _, _ in used)
    values = {
        "ops_per_s": len(walls) / sum(walls),
        "op_s.p50": statistics.median(statistics.median(scaled[i:i + cycle])
                                      for i in range(0, len(scaled), cycle)),
        "op_s.p90": _p90(walls),
        "cpu_s_per_op": sum(cpus) / len(cpus),
        "setup_s": statistics.median(setup["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = sum(1 for w in walls if w > values["op_s.p90"])
    notes = {
        "ops_per_s": "n=%d ops in whole cycles; raw %.6g" % (len(walls), len(raw) / sum(raw)),
        "op_s.p50": "n=%d, median of cycle medians; raw median %.6g"
                    % (len(walls), statistics.median(raw)),
        "op_s.p90": "n=%d, %d beyond; raw %.6g" % (len(walls), beyond, _p90(raw)),
        "cpu_s_per_op": "n=%d, own and child processes; raw %.6g"
                        % (len(walls), sum(c for _, c, _ in used) / len(used)),
        "setup_s": "median of %d fresh processes; raw %.6g"
                   % (SETUP_PROBES, statistics.median(setup["raw_setup_s"])),
    }
    return {name: (values[name], unit, notes.get(name, "")) for name, unit in END_TO_END}


def per_layer(loop, setup, seconds):
    """Each cycle of operations runs untraced, then traced; per-operation layer figures.

    Alternating keeps drift (warm-up, a noisy neighbour) out of the overhead.
    """
    tracer = tracing.Tracer()
    cycle = workloads.cycle_length(loop.workload)
    ops = workloads.operations(loop.workload, loop.seed)
    plain, traced = [], []
    untraced_main = loop.main
    start = time.perf_counter()
    block_s = 0.0
    with loop.speed:
        # stop before a block that would end past the run's length
        while not traced or time.perf_counter() + block_s <= start + seconds:
            t0 = time.perf_counter()
            block = [next(ops) for _ in range(cycle)]
            plain += [loop.run_one(op) for op in block]
            with tracer:
                loop.main = tracer.wrap("cli.main", untraced_main)  # the operation's root span
                for op in block:
                    tracer.begin_op(op.index)  # closes the previous operation's keys
                    traced.append(loop.run_one(op))
                loop.main = untraced_main
            tracer.finish()
            block_s = time.perf_counter() - t0
    n_ops = len(traced)
    metrics = {}
    for name, (fn, quantity) in PER_LAYER.items():
        st = tracer.stats.get(fn) or tracing.Stat()
        if quantity == "kept_ratio":
            value = st.kept / st.pairs if st.pairs else 0.0
        elif quantity == "distinct_ratio":
            value = st.distinct / st.calls if st.calls else 0.0
        elif quantity == "product_factors":
            value = st.factors / n_ops
        else:
            value = getattr(st, quantity) / n_ops
        metrics[name] = (value, UNITS[quantity], "over %d traced ops, raw" % n_ops)
    speed = loop.speed
    plain_s = sum(_scaled([(w, span) for w, _, span in plain], speed))
    traced_s = sum(_scaled([(w, span) for w, _, span in traced], speed))
    run_values = {
        "setup.import_s": statistics.median(setup["import_s"]),
        "setup.interpreter_s": statistics.median(setup["interpreter_s"]),
        "cli.main.exit_0": loop.exit_codes[0] / loop.attempted,
        "cli.main.exit_1": loop.exit_codes[1] / loop.attempted,
        "cli.main.exit_2": loop.exit_codes[2] / loop.attempted,
        "trace.ops_per_s.untraced": n_ops / plain_s,
        "trace.ops_per_s.traced": n_ops / traced_s,
        "trace.overhead_ratio": traced_s / plain_s,
    }
    notes = {"trace.overhead_ratio": "traced/untraced time on the same %d ops" % n_ops,
             "cli.main.exit_0": "share of all %d ops" % loop.attempted}
    for name, unit in RUN_METRICS:
        metrics[name] = (run_values[name], unit, notes.get(name, ""))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.jsonl" % (loop.workload, loop.seed))
    tracer.write(path)
    return metrics, path


def run_workload(workload, seed, seconds, trace):
    main = _import_cli()
    golden = None
    if seed == workloads.DEFAULT_SEED:
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)[workload]
    loop = Loop(main, workload, seed, golden)
    setup = _setup_probes(workload, seed, loop.speed, with_interpreter=trace)
    if trace:
        metrics, path = per_layer(loop, setup, seconds)
        print("# spans written to %s" % os.path.relpath(path, ROOT))
    else:
        metrics = end_to_end(loop, loop.run(seconds), setup)
    samples = [d for _, d in loop.speed.log]
    print("# host: %d calibration samples, fastest %.4g ms, median %.4g ms, reference %.4g ms"
          % (len(samples), 1e3 * loop.speed.fastest_s(), 1e3 * statistics.median(samples),
             1e3 * hostspeed.REFERENCE_S))
    print("# %s seed %d trace %d: %d ops attempted, %d failed (failed_ratio %.4g)"
          % (workload, seed, trace, loop.attempted, len(loop.failures),
             len(loop.failures) / loop.attempted))
    print("# exit codes: %s" % ", ".join("%s: %d" % kv for kv in sorted(
        loop.exit_codes.items(), key=lambda kv: str(kv[0]))))
    for verdict, count in sorted(loop.honest.items()):
        if not verdict.endswith(":pass"):
            print("# recorded, not judged: %s x%d" % (verdict, count))
    for op, errors, stderr in loop.failures[:5]:
        print("# FAILED op %d %s: %s %s" % (op.index, " ".join(op.argv), "; ".join(errors[:3]),
                                           stderr), file=sys.stderr)
    for name, (value, unit, note) in metrics.items():
        print("%-44s %-14.6g %-10s %s" % (name, value, unit, note))
    return {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }


def run_all(seed, seconds, trace):
    """Every workload in a fresh process of its own; metrics keyed workload/name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise SetupError("workload %s exited %d" % (workload, done.returncode))
        for line in lines[:-1]:
            print("[%s] %s" % (workload, line))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s/%s" % (workload, name)] = metric
    return combined


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
