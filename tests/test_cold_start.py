"""Each command imports only the layers it runs, and the package's names
load on first use.  No command imports ``dataclasses``, or ``inspect``,
which ``dataclasses`` brings in, and theta-verify loads no ring: not
``polynomial`` or ``series``, nor the ``fractions`` and ``decimal`` they
bring in.  ``rigidity``, ``odd-check`` and the document loader load
``twist`` and ``lefschetz`` and no ring either, nor the formal calculus in
``characters``; the loader's rationals need ``fractions``.  ``expand``
loads ``characters`` and the ring, even for a scalar theta series, whose
formal route lives there, and not the engine.

Every check runs in a fresh interpreter: a module that an earlier test
imported stays in ``sys.modules``, and a name the package has resolved once
stays in its namespace.
"""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
LAYERS = tuple("ellrig." + name for name in (
    "errors", "polynomial", "series", "theta", "twist", "characters", "lefschetz"))

# the last line a probe prints: the ellrig modules loaded, and each of
# csv, dataclasses, inspect, fractions and decimal that is
_LOADED = ("import sys; print(' '.join(m for m in sys.modules if m.startswith('ellrig') "
           "or m in ('csv', 'dataclasses', 'inspect', 'fractions', 'decimal')))")
# what no command, and no layer, imports
NEVER = {"dataclasses", "inspect"}
# the formal ring and the exact rationals it brings in
RING = {"ellrig.polynomial", "ellrig.series", "fractions", "decimal"}
THETA = {"ellrig", "ellrig.errors", "ellrig.record", "ellrig.theta"}
# the fixed-point engine, and the formal modules it does without
ENGINE = THETA | {"ellrig.twist", "ellrig.lefschetz", "fractions"}
FORMAL = {"ellrig.polynomial", "ellrig.series", "ellrig.characters"}


def _run(code):
    """Run ``code`` in a fresh interpreter on this tree's source; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _main(*argv):
    return "from ellrig.cli import main; assert main(%r) == 0" % (list(argv),)


@pytest.mark.parametrize("code, loaded, absent", [
    pytest.param("import ellrig", {"ellrig"}, set(LAYERS) | {"ellrig.cli"}, id="import"),
    pytest.param("import ellrig; ellrig.TauPoint; ellrig.theta", THETA,
                 RING | {"ellrig.twist", "ellrig.characters", "ellrig.lefschetz", "ellrig.cli"},
                 id="theta-name"),
    pytest.param(_main("theta-verify", "--tau=1j"), THETA | {"ellrig.cli"},
                 RING | {"ellrig.twist", "ellrig.characters", "ellrig.lefschetz", "csv"},
                 id="theta-verify"),
    pytest.param(_main("theta-verify", "--tau=1j", "--format=csv"), {"csv"},
                 RING | {"ellrig.twist", "ellrig.characters", "ellrig.lefschetz"},
                 id="theta-verify-csv"),
    pytest.param(_main("expand", "--factor=Q1V", "--symbols=z1", "--q-order=3"),
                 {"ellrig.characters"}, {"ellrig.lefschetz", "csv"}, id="expand"),
    # the formal theta series lives in characters, with the ring
    pytest.param(_main("expand", "--factor=theta2", "--q-order=2"),
                 FORMAL, {"ellrig.lefschetz", "csv"}, id="expand-theta"),
    pytest.param(_main("rigidity", "demos/data/four_sphere.json", "--tau=1j"),
                 ENGINE | {"ellrig.cli"}, FORMAL | {"csv"}, id="rigidity"),
    pytest.param(_main("odd-check", "demos/data/odd_rigid.json", "--tau=1j"),
                 ENGINE | {"ellrig.cli"}, FORMAL | {"csv"}, id="odd-check"),
    pytest.param("from ellrig.lefschetz import load_document; "
                 "load_document('demos/data/mixed_components.json')",
                 ENGINE, FORMAL | {"ellrig.cli", "csv"}, id="load-document"),
])
def test_a_command_loads_only_its_layers(code, loaded, absent):
    modules = set(_run(code + "\n" + _LOADED).splitlines()[-1].split())
    assert loaded <= modules
    assert not (absent | NEVER) & modules


def test_plain_theta_loads_no_ring_and_a_formal_series_loads_it():
    # values, shift factors and the Jacobi identity at plain arguments (a
    # Fraction among them) never touch the ring; the formal q-series is in
    # characters, which loads it, and its coefficients have the bits they
    # had when theta imported the ring at load
    out = _run(
        "import sys\n"
        "from fractions import Fraction\n"
        "from ellrig.theta import (TauPoint, ThetaKind, jacobi_residual, shift_factor,\n"
        "                          theta_eval, theta_values)\n"
        "ring = ('ellrig.polynomial', 'ellrig.series')\n"
        "tau = TauPoint(0.3 + 0.8j)\n"
        "for v in (0.1, 1, Fraction(1, 3)):\n"
        "    theta_eval(ThetaKind.THETA2, v, tau)\n"
        "theta_values(0.23 + 0.11j, tau)\n"
        "shift_factor(ThetaKind.THETA, 0.23 + 0.11j, tau, 1, 1)\n"
        "jacobi_residual(tau)\n"
        "print([m for m in ring if m in sys.modules])\n"
        "from ellrig.characters import theta_qseries\n"
        "for kind, centre in ((ThetaKind.THETA1, 0.1 + 0.05j), (ThetaKind.THETA2, 0.2)):\n"
        "    s = theta_qseries(kind, centre, None, 2)\n"
        "    print([(str(e), s.coeff(e)) for e in s.support()])\n"
        "print([m for m in ring if m in sys.modules])\n")
    assert out.splitlines() == [
        "[]",
        "[('1/8', (1.925627702047469-0.09748027252100856j)), "
        "('9/8', (1.308531105286163-0.7910157333025424j))]",
        "[('0', 1.0), ('1/2', (-0.6180339887498949+0j)), "
        "('1', (-1.1102230246251565e-16+0j))]",
        "['ellrig.polynomial', 'ellrig.series']"]


def test_the_library_tour_runs_and_every_exported_name_resolves():
    readme = open(os.path.join(ROOT, "README.md")).read()
    tour = re.search(r"## Library tour\s+```python\n(.*?)```", readme, re.S).group(1)
    assert "from ellrig import *" in tour
    out = _run(tour + (
        "\nimport ellrig\n"
        "unbound = [name for name in ellrig.__all__ if name not in globals()]\n"
        "print(len(ellrig.__all__), unbound, hasattr(ellrig, 'no_such_name'),\n"
        "      ellrig.theta.TauPoint is TauPoint)"))
    assert out.splitlines()[-1] == "61 [] False True"
