"""Exception and warning types shared across the package."""


class EllrigError(Exception):
    """Base class for all workbench errors."""


class RingMismatchError(EllrigError):
    """Operands declare incompatible coefficient rings or generator sets."""


class OrderError(EllrigError):
    """A coefficient at or beyond the truncation order was requested."""


class InversionError(EllrigError):
    """A series or polynomial has no inverse: its leading coefficient (or
    constant term) is zero or not invertible."""


class DomainError(EllrigError):
    """Argument outside the configured domain (half-plane margin, negative
    exponents in plain construction, malformed matrix)."""


class PreconditionError(EllrigError):
    """A documented operation precondition does not hold."""


class CapacityError(EllrigError):
    """Requested degree or order exceeds the configured capacity guard."""


class SchemaError(EllrigError):
    """Input document does not match the expected schema."""


class SingularFactorError(EllrigError):
    """A theta factor of the integrand vanishes at the evaluation point.

    Carries enough context to attribute the pole: which component, which
    factor, and the offending parameter value.
    """

    def __init__(self, message, *, component=None, factor=None, t=None):
        super().__init__(message)
        self.component = component
        self.factor = factor
        self.t = t


class IgnoredDataWarning(UserWarning):
    """Input data accepted but not used by any evaluation."""


class DomainMarginWarning(UserWarning):
    """A transformed point left the configured half-plane margin."""


class WeightMismatchWarning(UserWarning):
    """A component's dimension bookkeeping cannot reproduce the declared
    modular weight, so the S identity is not expected to hold."""
