"""Exception types shared across the package."""

from __future__ import annotations


class FlowCompleteError(Exception):
    """Base class for all package-specific errors."""


class DisconnectedPairError(FlowCompleteError):
    """The requested row and column vertices lie in different components."""


class InvalidPathError(FlowCompleteError):
    """A vertex sequence is not a valid observed path in the graph."""


class InvalidFlowError(FlowCompleteError):
    """An edge assignment violates the unit-flow conservation constraints."""


class NoPathError(FlowCompleteError):
    """No connecting path exists, so a path-based estimate is impossible."""


class DegenerateDenominatorError(FlowCompleteError):
    """The stabilized ratio denominator collapsed below the safe threshold."""
