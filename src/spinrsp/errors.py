"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration problems exit 2,
I/O problems exit 3, and any :class:`SpinRspError` raised during a
computation exits 4.
"""


class SpinRspError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SpinRspError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class UndefinedOutcomeError(DomainError):
    """A zero-probability measurement outcome carries no conditional state;
    quantities derived from it are undefined and must be skipped."""


class EmptyPostSelectionError(SpinRspError):
    """Post-selection kept a set of outcomes with (numerically) zero total
    probability, so the post-selected average does not exist."""


class SearchFailureError(SpinRspError):
    """A numerical search (e.g. for the optimal squeezing time) found no
    usable optimum in its window."""


class NumericalError(SpinRspError):
    """An underlying numerical routine (eigensolver, quadrature) failed."""
