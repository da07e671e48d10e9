"""Scalar real-arithmetic backends.

All series kernels route their elementary operations through a backend so
that IEEE doubles can be swapped for extended precision without touching
the truncation logic.  The default backend is plain ``math`` on doubles;
``MPMathBackend`` wraps ``mpmath.mpf`` at a chosen number of decimal digits
and is useful when probing the x -> 1 regime beyond what 16 digits resolve.
"""
from __future__ import annotations

import math
import sys


class FloatBackend:
    """IEEE-754 double arithmetic (about 16 significant decimal digits)."""

    name = "float64"
    #: machine epsilon of the working type
    eps = sys.float_info.epsilon

    def real(self, v):
        return float(v)

    def exp(self, v):
        return math.exp(v)

    def log(self, v):
        return math.log(v)

    def log1p(self, v):
        return math.log1p(v)

    def expm1(self, v):
        return math.expm1(v)

    def sqrt(self, v):
        return math.sqrt(v)

    def atanh(self, v):
        return math.atanh(v)

    def to_float(self, v) -> float:
        return float(v)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class MPMathBackend(FloatBackend):
    """Arbitrary-precision backend on ``mpmath.mpf`` scalars.

    Requires the optional ``mpmath`` dependency.  Precision is fixed per
    instance; concurrent use of instances with different ``dps`` is safe as
    long as the global ``mpmath.mp`` context is not mutated elsewhere.
    """

    def __init__(self, dps: int = 30):
        import mpmath

        self._mp = mpmath
        self.dps = int(dps)
        self.name = f"mpmath-dps{self.dps}"
        self.eps = float(10.0 ** (1 - self.dps))

    def real(self, v):
        with self._mp.workdps(self.dps):
            return self._mp.mpf(v)

    def exp(self, v):
        with self._mp.workdps(self.dps):
            return self._mp.exp(v)

    def log(self, v):
        with self._mp.workdps(self.dps):
            return self._mp.log(v)

    def log1p(self, v):
        with self._mp.workdps(self.dps):
            return self._mp.log(1 + self._mp.mpf(v))

    def expm1(self, v):
        with self._mp.workdps(self.dps):
            return self._mp.expm1(v)

    def sqrt(self, v):
        with self._mp.workdps(self.dps):
            return self._mp.sqrt(v)

    def atanh(self, v):
        with self._mp.workdps(self.dps):
            return self._mp.atanh(v)


#: module-wide default; pass an explicit backend to override per call
DEFAULT_BACKEND = FloatBackend()
