"""Byte-for-byte snapshots of the CLI reports on the demo documents.

Each case runs one ``ellrig`` command from the repository root (so the
document path in the report is the same in every checkout), checks its
exit code and compares its report text with
``tests/snapshots/<name>.json``.  A change to the ring, theta or engine
code that moves any printed digit fails here.

After an intended change of the reports, rewrite the files with

    PYTHONPATH=src python tests/test_report_snapshots.py

and explain the diff in CHANGES.md.
"""

import contextlib
import io
import os

import pytest

from ellrig.cli import main

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
SNAPSHOTS = os.path.join(os.path.dirname(__file__), "snapshots")
TAU = "--tau=0.3+0.8j"

# name -> (argv, exit code)
CASES = {
    "rigidity-four_sphere": (["rigidity", "demos/data/four_sphere.json", TAU], 0),
    "rigidity-mixed_components": (
        ["rigidity", "demos/data/mixed_components.json", TAU], 1),
    "rigidity-odd_live": (["rigidity", "demos/data/odd_live.json", TAU], 1),
    "rigidity-odd_rigid": (["rigidity", "demos/data/odd_rigid.json", TAU], 1),
    "odd-check-odd_live": (
        ["odd-check", "demos/data/odd_live.json", TAU, "--degree-cap=7"], 1),
    "odd-check-odd_rigid": (
        ["odd-check", "demos/data/odd_rigid.json", TAU, "--degree-cap=7"], 0),
    "expand-Q2V": (["expand", "--factor=Q2V", "--symbols=z1,z2", "--rotations=1,-2",
                    "--t=0.1+0.05j", "--q-order=3", "--degree-cap=3"], 0),
    "theta-verify": (["theta-verify", TAU], 0),
}


def run_case(argv):
    """Exit code and report text of one command run from the repository root."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def snapshot_path(name):
    return os.path.join(SNAPSHOTS, name + ".json")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_snapshot(name):
    argv, exit_code = CASES[name]
    code, text = run_case(argv)
    with open(snapshot_path(name)) as fh:
        expected = fh.read()
    assert code == exit_code
    assert text == expected


def write_snapshots():
    os.makedirs(SNAPSHOTS, exist_ok=True)
    for name, (argv, _) in sorted(CASES.items()):
        with open(snapshot_path(name), "w") as fh:
            fh.write(run_case(argv)[1])


if __name__ == "__main__":
    write_snapshots()
