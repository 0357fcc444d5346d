"""Exception types shared across the toolkit.

The split mirrors the failure modes the operations promise: bad input data,
numerical breakdown (ill conditioning, lost convergence), domain violations
(an argument outside the mathematical domain of the map), and window overflow
in truncated/ windowed computations.
"""


class WhlabError(Exception):
    """Base class for all toolkit errors."""


class InputValidationError(WhlabError, ValueError):
    """Input data violates a declared precondition (shape, symmetry, ...)."""


class NumericalError(WhlabError, ArithmeticError):
    """A numerically well-posed step degenerated (near-singular solve, ...)."""


class DomainError(WhlabError, ValueError):
    """Argument lies outside the mathematical domain of the operation."""


class WindowOverflowError(WhlabError, ValueError):
    """A windowed computation would need data outside the declared window."""

