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
    """A model provider call failed, after any retries its policy allows."""

    def __init__(self, message: str, status: int | None = None, *, connection: bool = False):
        super().__init__(message)
        self.status = status
        self.connection = connection  # the provider could not be reached at all

    @property
    def transient(self) -> bool:
        """Worth retrying: no connection, a timeout (408), a rate limit (429)
        or a server error (5xx). Anything else, such as a 401 or an unset
        API key, fails the same way every time."""
        status = self.status
        return self.connection or status in (408, 429) or (status is not None and 500 <= status < 600)


class MalformedResponse(VulnReachError):
    """Provider response violated the expected schema, even after reprompting."""


class DimsMismatch(VulnReachError):
    """Vector dimensionality differs from the store-wide dimensionality."""


class DuplicateIdConflict(VulnReachError):
    """A block id inserted when it is already stored, or twice in one insert."""


class IndexFormatError(VulnReachError):
    """Index files that are corrupt, from two builds, or of another format
    version."""


class EmptyIndex(VulnReachError):
    """Analysis requested against a store with zero entries."""


class MissingPrediction(ConfigError):
    """A manifest project has no prediction to score."""
