"""Exception types shared across the package."""
from __future__ import annotations


class PorousError(Exception):
    """Base class for package-specific failures; keyword arguments are
    kept as ``details``, the failure's diagnostics."""

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


class PreconditionError(PorousError):
    """An audited precondition of an operation failed; carries diagnostics."""


class BlendPreconditionError(PreconditionError):
    """Fields passed to blend differ too much on the matching annulus."""


class ConstructionFailure(PorousError):
    """A build stage could not certify its guarantees; carries diagnostics."""


class AuditFailure(PorousError):
    """A verification audit found a concrete violation; carries diagnostics."""


class ParseError(PorousError):
    """A serialized artifact is malformed; message names the record."""


class ConfigError(PorousError):
    """A run configuration failed validation; message lists every problem."""


class NeedsMoreSamples(PorousError):
    """A sampled certification stayed indeterminate within budget."""
