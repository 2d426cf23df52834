"""Theta-function workbench: q-series and nilpotent-polynomial cores,
Jacobi theta machinery, characteristic-form calculus, and Lefschetz
rigidity checks over fixed-point data.

The names below, and the layer modules, load on first use (PEP 562):
``import ellrig`` imports no layer, and ``ellrig.TauPoint`` imports only
``theta`` and the modules it needs.  ``from ellrig import *`` imports every
layer."""

import importlib

_LAYERS = {
    "errors": """CapacityError DomainError DomainMarginWarning EllrigError
        IgnoredDataWarning InversionError OrderError PreconditionError
        RingMismatchError SchemaError SingularFactorError WeightMismatchWarning""",
    "polynomial": "ChernPoly Generators",
    "series": "QExponent QSeries qexp",
    "theta": """MoebiusMatrix S_MATRIX T_MATRIX TauPoint ThetaKind jacobi_residual
        moebius_act shift_factor theta_derivative theta_eval theta_prime_zero
        theta_zero_location""",
    "twist": """OddMapData TwistFactor TwistSpec log_derivative_coefficients odd_ch_Q
        odd_transform_residual u_moment""",
    "characters": """FormalBundle ch_delta ch_power_op ch_theta_twist ch_twist_oracle
        theta_qseries""",
    "lefschetz": """AnomalyFactor FixedComponentData FixedPointData LefschetzReport
        ModularCheck PoleHit TranslationCheck anomaly_condition_check
        assemble_integrand lefschetz_eval modular_residual periodicity_residual
        pole_scan rigidity_sweep translation_anomaly_check""",
}
# each re-exported name -> the module that defines it
_MODULE_OF = {name: module for module, names in _LAYERS.items() for name in names.split()}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAYERS:  # a layer module itself, as ``ellrig.theta``
        return importlib.import_module("." + name, __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value
