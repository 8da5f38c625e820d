"""Exception types shared across the package."""


class GeomomentError(Exception):
    """Base class for all package-specific errors."""


class NotSymmetric(GeomomentError):
    pass


class NotPositiveDefinite(GeomomentError):
    def __init__(self, message, lambda_min=None):
        super().__init__(message)
        self.lambda_min = lambda_min


class NonPositiveSpectrum(NotPositiveDefinite):
    """A computed pencil eigenvalue is <= 0 (or NaN)."""


class ConvergenceFailure(GeomomentError):
    pass


class NotInImage(GeomomentError):
    """The matrix is not the image of any (mean, covariance) pair."""


class BatchTooSmall(GeomomentError):
    pass


class DegenerateSpectrum(GeomomentError):
    pass


class NearZeroDistance(GeomomentError):
    pass


class SupportMismatch(GeomomentError):
    pass


class NonInteriorPoint(GeomomentError):
    """A probability vector touches the boundary of the simplex."""


class DomainError(GeomomentError):
    pass


class RegimeViolation(GeomomentError):
    pass


class NonFiniteLoss(GeomomentError):
    """A training loss is inf or NaN; record holds epoch, step, the loss, seed and dist_kind."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


class ConfigError(GeomomentError):
    """Bad run-config file; message carries line/field diagnostics."""
