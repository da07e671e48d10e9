"""One exception class per failure kind: InvalidSpec is a bad argument (the
CLI exits 1); NonConvergent, Overflow and SizeLimit are failures to compute.
The private helpers below are the float bounds and the argument rendering
that every module's checks and messages share.
"""
import math
import numbers
import sys

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


#: the largest finite double, and its log
_HUGE = sys.float_info.max
_LN_HUGE = math.log(_HUGE)


def _brief(value) -> str:
    """repr(value), or the size of an integer too long for str() to print."""
    if isinstance(value, numbers.Integral) and int(value).bit_length() > 1024:
        return f"<an integer of {int(value).bit_length()} bits>"
    return repr(value)
