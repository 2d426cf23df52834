"""Every function the benchmark's tracer wraps still exists where it looks.

The tracer (bench/tracing.py) replaces these names by wrappers; a rename
here would silently drop a layer from the per-layer metrics.  The list is
written out rather than imported, so the test suite does not depend on the
benchmark's files.
"""

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
    assert callable(vars(owner).get(name))


def test_the_traced_odd_characters_are_the_ones_the_engine_calls():
    # the tracer wraps characters.odd_ch_Q in every module that binds the
    # same function: the engine calls it from lefschetz and the odd
    # relations from twist, so a copy would leave their calls uncounted
    assert characters.odd_ch_Q is twist.odd_ch_Q is lefschetz.odd_ch_Q
