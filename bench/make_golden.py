"""Rewrite bench/golden.json from the current program.

    python3 bench/make_golden.py

Runs the first operations of every workload on the default seed and stores
each report's numbers.  A report that fails its structure or law checks is
refused.  Regenerate only when a change to the program is meant to change
the numbers, and say so where the change is described.
"""

import contextlib
import io
import json
import os
import sys

import run
import validate
import workloads

GOLDEN_OPS = {"doc-verify": 6, "ladder-expand": 7, "theta-identities": 2}


def main():
    os.chdir(run.ROOT)
    cli_main = run._import_cli()
    golden = {}
    for workload, n in GOLDEN_OPS.items():
        loop = run.Loop(cli_main, workload, workloads.DEFAULT_SEED, None)
        entries = golden[workload] = []
        for op in workloads.first_operations(workload, workloads.DEFAULT_SEED, n):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(list(op.argv))
            errors, _, report = validate.judge(
                op, code, out.getvalue(), loop.c3_vanishes.get(op.document, False))
            if errors:
                sys.exit("op %d %s: %s" % (op.index, " ".join(op.argv), errors))
            entries.append(validate.golden_record(op, report))
    with open(run.GOLDEN_PATH, "w") as fh:
        fh.write("{\n")
        for i, (workload, entries) in enumerate(golden.items()):
            fh.write('%s"%s": [\n' % (",\n" if i else "", workload))
            fh.write(",\n".join(json.dumps(e, sort_keys=True) for e in entries))
            fh.write("\n]")
        fh.write("\n}\n")


if __name__ == "__main__":
    main()
