"""Each command imports only the layers it runs, and the package's names
load on first use.  No command imports ``dataclasses``, or ``inspect``,
which ``dataclasses`` brings in.

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
    "errors", "polynomial", "series", "theta", "characters", "lefschetz"))

# the last line a probe prints: the ellrig modules loaded, and each of
# csv, dataclasses and inspect that is
_LOADED = ("import sys; print(' '.join(m for m in sys.modules if m.startswith('ellrig') "
           "or m in ('csv', 'dataclasses', 'inspect')))")
# what no command, and no layer, imports
NEVER = {"dataclasses", "inspect"}


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
    pytest.param("import ellrig; ellrig.TauPoint; ellrig.theta", set(LAYERS[:4]),
                 {"ellrig.characters", "ellrig.lefschetz", "ellrig.cli"}, id="theta-name"),
    pytest.param(_main("theta-verify", "--tau=1j"), set(LAYERS[:4]),
                 {"ellrig.characters", "ellrig.lefschetz", "csv"}, id="theta-verify"),
    pytest.param(_main("theta-verify", "--tau=1j", "--format=csv"), {"csv"},
                 {"ellrig.characters", "ellrig.lefschetz"}, id="theta-verify-csv"),
    pytest.param(_main("expand", "--factor=Q1V", "--symbols=z1", "--q-order=3"),
                 {"ellrig.characters"}, {"ellrig.lefschetz", "csv"}, id="expand"),
    pytest.param(_main("rigidity", "demos/data/four_sphere.json", "--tau=1j"),
                 set(LAYERS), {"csv"}, id="rigidity"),
    pytest.param(_main("odd-check", "demos/data/odd_rigid.json", "--tau=1j"),
                 set(LAYERS), {"csv"}, id="odd-check"),
    pytest.param("from ellrig.lefschetz import load_document; "
                 "load_document('demos/data/mixed_components.json')",
                 set(LAYERS), {"ellrig.cli", "csv"}, id="load-document"),
])
def test_a_command_loads_only_its_layers(code, loaded, absent):
    modules = set(_run(code + "\n" + _LOADED).splitlines()[-1].split())
    assert loaded <= modules
    assert not (absent | NEVER) & modules


def test_the_library_tour_runs_and_every_exported_name_resolves():
    readme = open(os.path.join(ROOT, "README.md")).read()
    tour = re.search(r"## Library tour\s+```python\n(.*?)```", readme, re.S).group(1)
    assert "from ellrig import *" in tour
    out = _run(tour + (
        "\nimport ellrig\n"
        "unbound = [name for name in ellrig.__all__ if name not in globals()]\n"
        "print(len(ellrig.__all__), unbound, hasattr(ellrig, 'no_such_name'),\n"
        "      ellrig.theta.TauPoint is TauPoint)"))
    assert out.splitlines()[-1] == "62 [] False True"
