"""Exception hierarchy shared by all modules."""


class XXZFidelityError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(XXZFidelityError):
    """A product spec, tolerance, chain spec or config violates its invariants."""


class DomainError(XXZFidelityError):
    """An argument lies outside the mathematical domain of the operation."""


class NonConvergent(XXZFidelityError):
    """A series, product or iterative eigensolver failed to converge."""


class Underflow(XXZFidelityError):
    """A quantity rounded to zero where a strictly positive value is required."""


class Overflow(XXZFidelityError):
    """A quantity exceeds the floating-point range; use its log-space variant."""


class SingularSystem(XXZFidelityError):
    """Least-squares design matrix is rank deficient."""


class SizeLimit(XXZFidelityError):
    """A sector dimension exceeds the configured cap."""


class SectorMismatch(XXZFidelityError):
    """Ground states live in incompatible magnetization sectors."""
