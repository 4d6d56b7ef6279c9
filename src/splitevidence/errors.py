"""Exception types shared across the package."""


class SplitEvidenceError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SplitEvidenceError):
    """A model, prior or task is internally inconsistent (dimension mismatch etc.)."""


class DomainError(SplitEvidenceError, ValueError):
    """An argument lies outside the mathematically valid domain."""


class SpdError(SplitEvidenceError):
    """A matrix that must be symmetric positive definite is not.

    Carries the smallest eigenvalue of the offending matrix when available.
    """

    def __init__(self, message, min_eigenvalue=None):
        if min_eigenvalue is not None:
            message = f"{message} (smallest eigenvalue {min_eigenvalue:.6g})"
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class EstimatorError(SplitEvidenceError):
    """A local evidence estimator failed (non-finite weights, empty chain, ...)."""


class CombinationError(SplitEvidenceError):
    """Per-shard pieces cannot be recombined (missing shard, length mismatch)."""


class QuadratureError(SplitEvidenceError):
    """A quadrature oracle did not reach its requested tolerance."""


class UnexploredModelError(SplitEvidenceError):
    """A model-choice quantity was requested for a model with too few visits."""


class DecodeError(ConfigurationError):
    """A document read from outside the process failed validation (see ``wire``)."""


class SchemaVersionError(DecodeError):
    """A wire-format document declares an unsupported schema version."""


class WorkerError(SplitEvidenceError):
    """One or more workers failed; message carries per-shard detail."""
