"""Theta-function workbench: q-series and nilpotent-polynomial cores,
Jacobi theta machinery, characteristic-form calculus, and Lefschetz
rigidity checks over fixed-point data."""

from .errors import (
    CapacityError,
    DomainError,
    DomainMarginWarning,
    EllrigError,
    IgnoredDataWarning,
    InversionError,
    OrderError,
    PreconditionError,
    RingMismatchError,
    SchemaError,
    SingularFactorError,
    WeightMismatchWarning,
)
from .polynomial import ChernPoly, Generators
from .series import QExponent, QSeries, qexp
from .theta import (
    MoebiusMatrix,
    S_MATRIX,
    T_MATRIX,
    TauPoint,
    ThetaKind,
    jacobi_residual,
    moebius_act,
    shift_factor,
    st_transform_residual,
    theta_derivative,
    theta_eval,
    theta_prime_zero,
    theta_qseries,
    theta_zero_location,
)
from .characters import (
    FormalBundle,
    OddMapData,
    TwistFactor,
    TwistSpec,
    ahat,
    ch_delta,
    ch_power_op,
    ch_theta_twist,
    ch_twist_oracle,
    lhat,
    log_derivative_coefficients,
    odd_ch_Q,
    odd_trace_generators,
    odd_transform_residual,
    u_moment,
)
from .lefschetz import (
    AnomalyFactor,
    FixedComponentData,
    FixedPointData,
    LefschetzReport,
    ModularCheck,
    PoleHit,
    TranslationCheck,
    anomaly_condition_check,
    assemble_integrand,
    lefschetz_eval,
    modular_residual,
    periodicity_residual,
    pole_scan,
    pole_transport,
    rigidity_sweep,
    translation_anomaly_check,
)

__version__ = "0.1.0"
