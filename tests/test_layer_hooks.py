"""Every function the benchmark's tracer wraps still exists where it looks.

The tracer (bench/tracing.py) replaces these names by wrappers; a rename
here would silently drop a layer from the per-layer metrics.  The list is
written out rather than imported, so the test suite does not depend on the
benchmark's files.  The tracer reads a module's names with ``getattr``, so
the formal theta functions, which live in ``characters``, still resolve in
``theta``; it reads a class's names in its ``vars``.
"""

import ast
import inspect

import pytest

from ellrig import characters, cli, lefschetz, theta, twist
from ellrig.polynomial import ChernPoly
from ellrig.series import QSeries

HOOKS = {
    theta: ("theta_eval", "theta_eval_regularized", "theta_qseries",
            "theta_qseries_regularized"),
    theta.TauPoint: ("product_terms",),
    characters: ("ch_theta_twist", "ch_twist_oracle", "ch_power_op", "odd_ch_Q"),
    lefschetz: ("assemble_integrand", "lefschetz_eval", "rigidity_sweep",
                "modular_residual", "translation_anomaly_check", "periodicity_residual",
                "pole_scan"),
    cli: ("build_parser", "load_document", "emit"),
    ChernPoly: ("__mul__", "__add__", "inverse", "exp"),
    QSeries: ("__mul__", "inverse"),
}


@pytest.mark.parametrize("owner, name", [
    pytest.param(owner, name, id="%s.%s" % (owner.__name__, name))
    for owner, names in HOOKS.items() for name in names])
def test_hooked_name_exists(owner, name):
    if inspect.ismodule(owner):
        assert callable(getattr(owner, name, None))
    else:
        assert callable(vars(owner).get(name))


@pytest.mark.parametrize("name", ["theta_eval_regularized", "theta_qseries",
                                  "theta_qseries_regularized"])
def test_the_formal_theta_names_in_theta_are_those_of_characters(name):
    # the tracer looks these up in theta and wraps every module binding of
    # what it finds: that must be the function characters calls
    assert getattr(theta, name) is vars(characters)[name]
    assert name not in vars(theta)


def test_theta_has_no_ring_and_imports_only_at_its_top():
    # theta takes plain numbers: it names neither ring, and its one import
    # inside a function is the tracer's shim
    tree = ast.parse(inspect.getsource(theta))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
            names.add(getattr(node, "module", None))
    assert not names & {"ChernPoly", "QSeries", "polynomial", "series", "_is_poly"}
    nested = [function.name for function in ast.walk(tree)
              if isinstance(function, ast.FunctionDef)
              for node in ast.walk(function) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == ["__getattr__"]


def test_the_traced_odd_characters_are_the_ones_the_engine_calls():
    # the tracer wraps characters.odd_ch_Q in every module that binds the
    # same function: the engine calls it from lefschetz and the odd
    # relations from twist, so a copy would leave their calls uncounted
    assert characters.odd_ch_Q is twist.odd_ch_Q is lefschetz.odd_ch_Q
