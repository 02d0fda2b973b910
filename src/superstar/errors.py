"""Shared exception types.

All derive from ValueError so that generic input-validation handling catches
them; the distinct classes let tests and the CLI tell failure modes apart.
"""

from __future__ import annotations

__all__ = [
    "ClassError",
    "DimensionError",
    "DivergenceError",
    "ParameterRangeError",
    "ParityError",
    "SingularityError",
]


class DimensionError(ValueError):
    """Operands live on different spaces."""


class DivergenceError(ValueError):
    """An integral has no value, even as an epsilon-regularized limit."""


class ClassError(ValueError):
    """Input outside the function class an operation supports."""


class ParameterRangeError(ValueError):
    """A parameter whose derived constants are not finite nonzero floats."""


class ParityError(ValueError):
    """A graded slot received a value of the wrong parity."""


class SingularityError(ValueError):
    """A matrix that must be invertible is singular."""
