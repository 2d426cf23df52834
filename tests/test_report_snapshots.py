"""Byte-for-byte snapshots of the CLI reports on the demo documents.

Each case runs one ``ellrig`` command from the repository root (so the
document path in the report is the same in every checkout), checks its
exit code and compares its report text with
``tests/snapshots/<name>.json``.  The reports print each float as its
``repr``, the shortest text that parses back to the same double, so a
change to the ring, theta or engine code that moves any bit of any value
fails here, a signed zero included.  A change of the text alone (as from
17 significant digits to ``repr``) moves no value; :func:`describe_change`
reports it as within 0 relative, but cannot tell ``-0`` from ``-0.0``, so
check such a rewrite by parsing both sides with ``parse_int=float`` and
comparing the bits of every float.

After an intended change of the reports, rewrite the files with

    PYTHONPATH=src python tests/test_report_snapshots.py

and explain the diff in CHANGES.md.  The rewrite prints, for each file it
changes, the largest relative change among its values and among its
residuals, and every other field that moved (a ``status`` among them) or
an exit code that no longer matches its case (:func:`describe_change`).
"""

import contextlib
import io
import json
import os
import re

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
    # the fiber and tangent ladders as series in the engine's even kernel
    "rigidity-fiber_ladders": (["rigidity", "tests/data/fiber_ladders.json", TAU], 1),
    "rigidity-fiber_ladders_unrotated": (
        ["rigidity", "tests/data/fiber_ladders_unrotated.json", TAU], 1),
    # the bare kernel, without a Phi0-class factor, with a fiber ladder,
    # DeltaV and a tangent ladder
    "rigidity-ladders_without_phi0": (
        ["rigidity", "tests/data/ladders_without_phi0.json", TAU], 1),
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


# a number whose name holds one of these words is a residual: a difference
# of nearly equal values, whose relative change is roundoff on roundoff
RESIDUAL_WORDS = ("residual", "deviation", "defect")
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _json_leaves(value, path="", name=""):
    """(path, name, leaf) of every scalar of a parsed report, in document
    order; the name is the key the scalar sits under."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_leaves(item, "%s.%s" % (path, key) if path else key, key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _json_leaves(item, "%s[%d]" % (path, i), name)
    else:
        yield path, name, value


def _text_leaves(text):
    """(line, name, leaf) of a plain-text report: each number, named by the
    text before it since the previous number, then the line with its
    numbers blanked out."""
    for n, line in enumerate(text.splitlines(), 1):
        where, start = "line %d" % n, 0
        for match in NUMBER.finditer(line):
            yield where, line[start:match.start()], float(match.group())
            start = match.end()
        yield where, "", NUMBER.sub("#", line)


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def describe_change(old_text, new_text):
    """One line on how a rewritten report moved: the largest relative change
    |new - old| / max(|new|, |old|) among its values and among its residuals
    (numbers named with a RESIDUAL_WORDS word), then every other field that
    changed, a ``status`` among them."""
    try:
        old, new = list(_json_leaves(json.loads(old_text))), list(
            _json_leaves(json.loads(new_text)))
    except ValueError:
        old, new = list(_text_leaves(old_text)), list(_text_leaves(new_text))
    if [path for path, _, _ in old] != [path for path, _, _ in new]:
        return "the layout changed, not only numbers"
    worst = {"values": (0.0, ""), "residuals": (0.0, "")}
    moved = []
    for (path, name, x), (_, _, y) in zip(old, new):
        if x == y and type(x) is type(y):
            continue
        if _is_number(x) and _is_number(y):
            group = "residuals" if any(w in name for w in RESIDUAL_WORDS) else "values"
            rel = abs(y - x) / max(abs(x), abs(y)) if x != y else 0.0
            if rel > worst[group][0]:
                worst[group] = (rel, " at %s (%r -> %r)" % (path, x, y))
        else:
            moved.append("%s: %r -> %r" % (path, x, y))
    parts = ["%s within %.2g relative%s" % (group, rel, where)
             for group, (rel, where) in worst.items()]
    parts.append("; ".join(moved) if moved else "no status or other field changed")
    return "; ".join(parts)


def test_describe_change_separates_values_residuals_and_statuses():
    old = {"checks": [{"residual": 1e-20, "status": "pass"}], "mean": [2.0, -1.0]}
    new = {"checks": [{"residual": 4e-20, "status": "fail"}], "mean": [2.0, -1.5]}
    assert describe_change(json.dumps(old), json.dumps(new)) == (
        "values within 0.33 relative at mean[1] (-1.0 -> -1.5); residuals within 0.75 "
        "relative at checks[0].residual (1e-20 -> 4e-20); checks[0].status: 'pass' -> 'fail'")
    text = "L : (5.0+1j)   (relative defect 1e-15)\nok: True\n"
    assert describe_change(text, text.replace("1e-15", "2e-15")) == (
        "values within 0 relative; residuals within 0.5 relative at line 1 (1e-15 -> 2e-15); "
        "no status or other field changed")
    assert describe_change(text, text.replace("True", "False")) == (
        "values within 0 relative; residuals within 0 relative; "
        "line 2: 'ok: True' -> 'ok: False'")


def rewrite(path, text):
    """Write a snapshot file that changed, and print how it moved."""
    old = open(path).read() if os.path.exists(path) else None
    if old == text:
        return
    print("%s: %s" % (os.path.basename(path),
                      "new" if old is None else describe_change(old, text)))
    with open(path, "w") as fh:
        fh.write(text)


def write_snapshots():
    os.makedirs(SNAPSHOTS, exist_ok=True)
    for name, (argv, exit_code) in sorted(CASES.items()):
        code, text = run_case(argv)
        if code != exit_code:
            print("%s: exit code %d, the case expects %d" % (name, code, exit_code))
        rewrite(snapshot_path(name), text)


if __name__ == "__main__":
    write_snapshots()
