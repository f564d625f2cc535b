"""Exception types shared across the package."""

from __future__ import annotations


class KronthickError(Exception):
    """Base class for all package-specific errors."""


class InvalidSizeError(KronthickError):
    """A graph generator was asked for a part of size zero or less."""


class PreconditionError(KronthickError):
    """An operation was called outside its stated domain."""


class StructuralViolationError(KronthickError):
    """An internal structural assertion failed; indicates a bug, not bad input."""


class SeedRequiredError(KronthickError):
    """A construction needs an externally supplied seed decomposition."""


class SeedInvalidError(KronthickError):
    """A supplied seed decomposition failed validation."""


class SeedMismatchError(SeedInvalidError):
    """A valid seed decomposition is for another p than the one asked for."""


class ConstructionConflictError(KronthickError):
    """A construction produced a part that fails its own planarity obligation."""


class FixtureIntegrityError(KronthickError):
    """A checked-in fixture failed verification at load time."""


class DocumentFormatError(KronthickError):
    """A JSON document did not match the expected schema."""
