"""The x at which ln xi rounds to zero, where the conjecture ratio is inf.

Not a test module: pytest collects nothing here.
"""
import math

from xxzfidelity import ModelPoint, log_correlation_length


def _ln_xi(x):
    return log_correlation_length(ModelPoint.from_x(x))


def xi_one_x():
    """A double near x = 0.033990 at which ln xi is exactly 0.0.

    ln xi increases with x and crosses zero there, so bisection over the
    doubles of [0.0339, 0.0341] narrows to the crossing; rounding may step
    over 0.0 between the last two, so the doubles next to them are tried
    too.  Found afresh, so a move in the last digits of ln xi moves the x,
    not the test.
    """
    lo, hi = 0.0339, 0.0341
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        value = _ln_xi(mid)
        if value == 0.0:
            return mid
        lo, hi = (mid, hi) if value < 0.0 else (lo, mid)
    below = above = lo
    for _ in range(64):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
        for x in (above, below):
            if _ln_xi(x) == 0.0:
                return x
    raise AssertionError(f"ln xi never rounds to 0.0 near x = {lo!r}")
