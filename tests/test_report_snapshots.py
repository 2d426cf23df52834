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
EXPAND = ["expand", "--symbols=z1,z2", "--t=0.1+0.05j", "--q-order=3", "--degree-cap=3"]

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
    "theta-verify": (["theta-verify", TAU], 0),
    # the fiber and tangent ladders through the numeric ch_theta_twist path
    "rigidity-fiber_ladders": (["rigidity", "tests/data/fiber_ladders.json", TAU], 1),
    "rigidity-fiber_ladders_unrotated": (
        ["rigidity", "tests/data/fiber_ladders_unrotated.json", TAU], 1),
    # the formal path; a zero rotation takes the tangent ladder through
    # theta_qseries_regularized
    "expand-Theta1-zero-rotation": (EXPAND + ["--factor=Theta1", "--rotations=0,1"], 0),
    # skip records: t = 0 and t = 0.2 + 2 tau put a theta factor on its zero
    "rigidity-four_sphere-poles": (
        ["rigidity", "demos/data/four_sphere.json", "--tau=1j", "--t-grid=0,0.2"], 0),
    "odd-check-odd_rigid-pole": (
        ["odd-check", "demos/data/odd_rigid.json", "--t=0", "--tau=1j"], 0),
}
CASES.update(("expand-" + factor, (EXPAND + ["--factor=" + factor, "--rotations=1,-2"], 0))
             for factor in ("Q1V", "Q2V", "Q3V", "Theta2", "Theta3", "DeltaV"))
# higher caps, negative and zero rotations and Im t < 0: these pin the
# roundoff of the formal path (signed zeros included) bit for bit
CASES.update({
    "expand-Q1V-cap6": (["expand", "--factor=Q1V", "--symbols=z1,z2,z3",
                         "--rotations=-1,0,2", "--t=0.13-0.07j", "--q-order=3",
                         "--degree-cap=6"], 0),
    "expand-Theta2-cap5": (["expand", "--factor=Theta2", "--symbols=z1,z2",
                            "--rotations=0,-2", "--t=-0.21-0.11j", "--q-order=3",
                            "--degree-cap=5"], 0),
    "expand-Theta3-cap5": (["expand", "--factor=Theta3", "--symbols=z1,z2,z3",
                            "--rotations=-1,0,1", "--t=0.09-0.16j", "--q-order=3",
                            "--degree-cap=5"], 0),
    "expand-DeltaV-cap6": (["expand", "--factor=DeltaV", "--symbols=z1,z2",
                            "--rotations=-2,0", "--t=-0.17-0.05j", "--q-order=3",
                            "--degree-cap=6"], 0),
})


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
