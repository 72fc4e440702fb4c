"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["LotpathError", "InputError", "NumericalError", "NonTerminationError"]


class LotpathError(Exception):
    """Base class for all solver errors."""


class InputError(LotpathError, ValueError):
    """An instance file, policy file or parameter set failed validation."""


class NumericalError(LotpathError):
    """A fractile root could not be bracketed within
    :data:`lotpath.cycles.MAX_EXPAND` expansions."""


class NonTerminationError(LotpathError):
    """The feasibility-repair loop exceeded its iteration cap.

    Carries a ``diagnostics`` dict describing the graph state at abort time.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
