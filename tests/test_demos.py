"""The demo scripts' stdout, byte for byte.

Each demo in ``demos/`` runs in-process and its stdout is compared with
``tests/snapshots/demo-<name>.txt``.  The demos are deterministic and do not
read the working directory.

After an intended change of the printed output, rewrite the files with

    PYTHONPATH=src python tests/test_demos.py

and explain the diff in CHANGES.md.  The rewrite prints how each changed
file moved, as the report snapshots' rewrite does.
"""

import contextlib
import glob
import io
import os
import runpy

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
SNAPSHOTS = os.path.join(os.path.dirname(__file__), "snapshots")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "[0-9][0-9]_*.py")))


def demo_stdout(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(path, run_name="__main__")
    return out.getvalue()


def snapshot_path(demo):
    name = os.path.splitext(os.path.basename(demo))[0]
    return os.path.join(SNAPSHOTS, "demo-%s.txt" % name)


def test_every_demo_has_a_snapshot():
    assert len(DEMOS) == 5
    assert all(os.path.exists(snapshot_path(d)) for d in DEMOS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: os.path.basename(p))
def test_demo_stdout_matches_snapshot(demo):
    with open(snapshot_path(demo)) as fh:
        expected = fh.read()
    assert demo_stdout(demo) == expected


if __name__ == "__main__":
    from test_report_snapshots import rewrite

    for demo in DEMOS:
        rewrite(snapshot_path(demo), demo_stdout(demo))
