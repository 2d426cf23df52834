"""No run of ``ellrig`` ends in a traceback.

:func:`ellrig.cli.main` runs in process on argv for all four commands, and
on the shipped documents mutated in the fields a user edits: k, degree_cap,
rotations, odd_map.N, the twist's factors and exponents, and the
intersection keys.  Every run must return 0, 1 or 2, and a run that returns
2 writes exactly one ``error:`` line; an uncaught exception fails the test.
"""

import contextlib
import copy
import glob
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellrig.cli import main
from ellrig.twist import TwistFactor

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _read(path):
    with open(path) as fh:
        return json.load(fh)


DOCUMENTS = {os.path.basename(path): _read(path) for path in sorted(
    glob.glob(os.path.join(ROOT, "demos", "data", "*.json"))
    + glob.glob(os.path.join(ROOT, "tests", "data", "*.json")))}
# main's own "error: ..." line, or argparse's "ellrig expand: error: ..."
ERROR_LINE = re.compile(r"(ellrig[\w -]*: )?error: ")


def large_rank_document(n, fibered=False):
    """odd_rigid.json at odd_map.N = n; ``fibered`` adds one fiber of
    rotation 0 and twists by Psi1, whose S constant is 2^(1 + N/2)."""
    doc = copy.deepcopy(DOCUMENTS["odd_rigid.json"])
    doc["odd_map"]["N"] = n
    if fibered:
        doc["components"][0]["v_fibers"] = [{"symbol": "w1", "rotation": 0}]
        doc["twist"] = {"factors": ["Psi1"]}
    return doc


def run_main(argv, document=None):
    """(exit code, stdout, stderr) of main(argv), with the document written
    to a file whose path replaces the "DOC" item of argv."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if document is not None:
            path = os.path.join(tmp, "doc.json")
            with open(path, "w") as fh:
                json.dump(document, fh)
            argv = [path if item == "DOC" else item for item in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


RANK_2048 = ("error: odd_map: the spinor rank 2^(N/2) of N = 2048 is out of float range; "
             "N is at most 2046\n")


@pytest.mark.parametrize("command, n, fibered, error", [
    ("rigidity", 2048, False, RANK_2048), ("odd-check", 2048, False, RANK_2048),
    ("rigidity", 2046, True, "error: the S constant 2^(1024) of Psi1 is out of float range\n")])
def test_a_spinor_constant_out_of_float_range_is_one_error_line(command, n, fibered, error):
    # 2^(N/2) from N = 2048 on, and the S constant 2^(1 + N/2) of Psi1 on
    # one fiber at N = 2046, used to end in an OverflowError traceback
    assert run_main([command, "DOC"], large_rank_document(n, fibered)) == (2, "", error)


@pytest.mark.parametrize("command", ["rigidity", "odd-check"])
def test_the_largest_rank_still_runs(command):
    code, out, err = run_main([command, "DOC"], large_rank_document(2046))
    assert code in (0, 1) and err == ""
    assert json.loads(out)["checks"]


def _refuse_non_finite(token):
    raise ValueError("the report holds %s" % token)


def test_a_zero_target_class_at_the_largest_rank_reads_zero():
    # const * tau^2 = 2^1023 * (1.5j)^2 overflows to -inf, and times the 0 of
    # a class declared zero it read NaN, a failed check and exit 1
    code, out, err = run_main(["odd-check", "DOC", "--tau=1.5j"], large_rank_document(2046))
    assert (code, err) == (0, "")
    report = json.loads(out, parse_constant=_refuse_non_finite)
    residuals = {check["tag"]: check["residual"] for check in report["checks"]}
    assert repr(residuals["odd-s-relation-1-2/degree-3"]) == "0.0"


FACTORS = [str(f) for f in TwistFactor] + ["Bogus"]
EXPAND_FACTORS = ["Q1V", "Q2V", "Q3V", "Theta1", "Theta2", "Theta3", "DeltaV",
                  "theta", "theta1", "theta2", "theta3", "Phi0"]
# mostly moduli in range: below the margin, Im tau = 60 and 1e200j exit 2
TAUS = st.sampled_from(["1j", "0.3+0.8j", "-0.2+1.3j", "0.45+0.6j", "2j", "5j", "0.01j",
                        "60j", "1e200j", ""])
TS = st.sampled_from(["0", "0.5", "1", "0.11+0.07j", "0+100j", "1e308j", "-0.3+0.2j"])
SYMBOLS = ["z1", "z2", "z3"]


@st.composite
def theta_verify_argv(draw):
    argv = ["theta-verify", "--tau=" + ",".join(draw(st.lists(TAUS, min_size=1, max_size=3)))]
    if draw(st.booleans()):
        argv.append("--format=csv")
    return argv, None


@st.composite
def expand_argv(draw):
    argv = ["expand", "--factor=" + draw(st.sampled_from(EXPAND_FACTORS))]
    n = draw(st.integers(0, 3))
    if n:
        argv.append("--symbols=" + ",".join(SYMBOLS[:n]))
        if draw(st.booleans()):
            rotations = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            argv.append("--rotations=" + ",".join(map(str, rotations)))
    if draw(st.booleans()):
        argv.append("--t=" + draw(TS))
    argv.append("--q-order=%d" % draw(st.integers(1, 4)))
    if draw(st.booleans()):
        argv.append("--degree-cap=%d" % draw(st.one_of(st.integers(-1, 5), st.just(171))))
    if draw(st.booleans()):
        argv.append("--strict")
    return argv, None


@st.composite
def monomials(draw, symbols):
    """A functional key over the symbols, trace generators and an unknown
    name, with powers 0 to 3; most do not have the component's degree."""
    names = draw(st.lists(st.sampled_from(symbols + ["T3", "T5", "T7", "u9"]),
                          max_size=3))
    if not names:
        return "1"
    return " ".join("%s^%d" % (s, draw(st.integers(0, 3))) if draw(st.booleans()) else s
                    for s in names)


@st.composite
def mutated_document(draw):
    """A shipped document with a few of its fields changed."""
    doc = copy.deepcopy(DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))])
    edits = draw(st.sets(st.sampled_from(
        ["k", "degree_cap", "rotation", "N", "factors", "exponents", "keys"]), max_size=3))
    comp = draw(st.sampled_from(doc["components"]))
    symbols = [*comp.get("tangent_roots", []), *(e["symbol"] for e in comp.get("normal", [])),
               *(e["symbol"] for e in comp.get("v_fibers", []))]
    if "k" in edits:
        doc["k"] = draw(st.integers(-1, 6))
    if "degree_cap" in edits:
        comp["degree_cap"] = draw(st.integers(-1, 9))
    if "rotation" in edits:
        pieces = comp.get("normal", []) + comp.get("v_fibers", [])
        if pieces:
            draw(st.sampled_from(pieces))["rotation"] = draw(st.one_of(
                st.integers(-4, 4), st.sampled_from([-1000, 10 ** 6])))
    if "N" in edits:
        # mostly even ranks, to 4096
        doc.setdefault("odd_map", {"N": 8})["N"] = draw(st.one_of(
            st.integers(-1, 2048).map(lambda n: 2 * n), st.sampled_from([7, 4095])))
    if "factors" in edits:
        doc["twist"] = {"factors": draw(st.lists(st.sampled_from(FACTORS),
                                                 min_size=1, max_size=3, unique=True))}
    if "exponents" in edits:
        twist = doc.setdefault("twist", {"factors": ["Phi"]})
        twist["exponents"] = draw(st.lists(
            st.one_of(st.integers(1, 3), st.sampled_from([0, 52, 600])),
            min_size=len(twist["factors"]), max_size=len(twist["factors"])))
    if "keys" in edits:
        comp["intersection"] = {
            draw(monomials(symbols)): draw(st.sampled_from(["1", "0", "-1/3", "2"]))
            for _ in range(draw(st.integers(0, 3)))}
    return doc


@st.composite
def document_argv(draw):
    document = draw(mutated_document())
    # odd-check refuses a document without an odd map
    command = draw(st.sampled_from(["rigidity", "odd-check"] if "odd_map" in document
                                   else ["rigidity"]))
    argv = [command, "DOC"]
    if draw(st.booleans()):
        argv.append("--tau=" + draw(TAUS))
    if command == "odd-check" and draw(st.booleans()):
        argv.append("--degree-cap=%d" % draw(st.one_of(st.integers(2, 8), st.just(400))))
    return argv, document


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(theta_verify_argv(), expand_argv(), document_argv()))
@example((["rigidity", "DOC"], large_rank_document(2048)))
@example((["odd-check", "DOC"], large_rank_document(2048)))
@example((["rigidity", "DOC"], large_rank_document(2046, fibered=True)))
def test_every_run_ends_in_an_exit_code(case):
    code, _, err = run_main(*case)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert sum(bool(ERROR_LINE.match(line)) for line in err.splitlines()) == 1, err
