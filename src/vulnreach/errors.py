"""Exception hierarchy shared across the package."""

from __future__ import annotations


class VulnReachError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(VulnReachError):
    """Invalid or inconsistent configuration (bad values, unknown keys)."""


class EmptyProject(VulnReachError):
    """Project root contains no source files after ignore filtering."""


class EmptyText(VulnReachError):
    """Blank input where non-empty text is required."""


class ProviderError(VulnReachError):
    """A model provider call failed after exhausting the retry policy."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class MalformedResponse(VulnReachError):
    """Provider response violated the expected schema, even after reprompting."""


class DimsMismatch(VulnReachError):
    """Vector dimensionality differs from the store-wide dimensionality."""


class DuplicateIdConflict(VulnReachError):
    """Same block id inserted twice with different vectors."""


class IndexFormatError(VulnReachError):
    """Index file is corrupt or written by a newer format version."""


class EmptyIndex(VulnReachError):
    """Analysis requested against a store with zero entries."""


class MissingPrediction(VulnReachError):
    """A manifest project has no prediction to score."""
