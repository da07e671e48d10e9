"""One exception class per failure kind: InvalidSpec is a bad argument (the
CLI exits 1); NonConvergent, Overflow and SizeLimit are failures to compute.
"""

__all__ = ["XXZFidelityError", "InvalidSpec", "NonConvergent", "Overflow",
           "SizeLimit"]


class XXZFidelityError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(XXZFidelityError):
    """An argument violates its invariants or lies outside its domain."""


class NonConvergent(XXZFidelityError):
    """A series, product or iterative eigensolver failed to converge."""


class Overflow(XXZFidelityError):
    """A quantity exceeds the floating-point range; use its log-space variant."""


class SizeLimit(XXZFidelityError):
    """A finite chain is longer than ed_oracle.MAX_LENGTH."""
