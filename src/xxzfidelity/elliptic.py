"""Elliptic modulus, dual modulus, nome duality, and the XXZ correlation length.

The massive antiferromagnetic regime is parametrised by a nome x in (0,1)
with eps = -ln x and anisotropy Delta = -(x + 1/x)/2 < -1.  The elliptic
modulus pair is expressed through infinite products in the nome,

    k(z)  = 4 z^{1/2} (-z^2; z^2)_inf^4 / (-z; z^2)_inf^4,
    k'(z) = (z; z^2)_inf^4 / (-z; z^2)_inf^4,

and satisfies k^2 + k'^2 = 1.  The dual nome x~ = e^{-pi^2/eps} exchanges
the pair, k'(x) = k(x~), which converts the slowly convergent products near
x -> 1 into rapidly convergent ones.  The correlation length follows from

    1/xi = -1/2 ln k(x^2) = -1/2 ln((1 - k'(x)) / (1 + k'(x))) = atanh(k'(x)),

evaluated through k(x^2) or through k'(x) = k(x~), whichever nome is
smaller (x^2 below x ~ 0.1085, x~ above).  ln xi is available even where
xi itself overflows the float range.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import _HUGE, _brief, InvalidSpec
from .qseries import log_multibase_product

_PI_SQ = math.pi ** 2
_LN4 = math.log(4.0)
_LN_KP_LINEAR = 0.5 * math.log(3.0 * sys.float_info.epsilon)  # ln sqrt(3 eps_mach)


@dataclass(frozen=True)
class ModelPoint:
    """One anisotropy point: the nome x in (0,1) and eps = -ln x.

    Both are stored, since neither is recovered exactly from the other.
    Each point is checked once: ``__post_init__`` checks a hand-built pair
    and rejects one that disagrees; ``from_x`` / ``from_eps`` check their
    argument and skip it, as it cannot fail on the pair they derive.  Delta
    and the dual nome are computed on access.
    """

    x: float
    eps: float

    def __post_init__(self):
        if not (0.0 < self.x < 1.0):
            raise InvalidSpec(f"x must lie in (0,1), got {_brief(self.x)}")
        if not (0.0 < self.eps <= _HUGE):
            raise InvalidSpec(
                f"eps must be positive and finite, got {_brief(self.eps)}")
        # a subnormal x carries an absolute rounding error of one ulp, which
        # moves -ln x by up to ulp/x; for a normal x that is below 1e-12
        if abs(self.eps + math.log(self.x)) > max(1e-12 * (1.0 + self.eps),
                                                   math.ulp(self.x) / self.x):
            raise InvalidSpec(
                f"inconsistent point: eps={self.eps!r} but -ln x={-math.log(self.x)!r}")

    @classmethod
    def from_x(cls, x: float) -> "ModelPoint":
        # compared before float() (here, in from_eps and in __post_init__),
        # so an integer of any size is refused exactly
        if not (0.0 < x < 1.0):
            raise InvalidSpec(f"x must lie in (0,1), got {_brief(x)}")
        x = float(x)
        return cls._built(x, -math.log(x))

    @classmethod
    def from_eps(cls, eps: float) -> "ModelPoint":
        if not (0.0 < eps <= _HUGE):
            raise InvalidSpec(f"eps must be positive and finite, got {_brief(eps)}")
        eps = float(eps)
        x = math.exp(-eps)
        if not (0.0 < x < 1.0):
            raise InvalidSpec(f"eps={eps!r} leaves the representable x range (0,1)")
        return cls._built(x, eps)

    @classmethod
    def _built(cls, x: float, eps: float) -> "ModelPoint":
        """(x, eps) without ``__post_init__``, for a pair from_x or
        from_eps derived."""
        p = object.__new__(cls)
        p.__dict__["x"], p.__dict__["eps"] = x, eps
        return p

    @property
    def delta(self) -> float:
        """Delta = -(x + 1/x)/2 < -1; -inf once 1/x overflows (eps > ~709.78)."""
        return -0.5 * (self.x + 1.0 / self.x)

    @property
    def x_dual(self) -> float:
        """x~ = e^{-pi^2/eps}; rounds to 0.0 for eps < pi^2/745, where
        log-space consumers should use ``ln_x_dual``."""
        return math.exp(-_PI_SQ / self.eps)

    @property
    def ln_x_dual(self) -> float:
        """ln x~ = -pi^2/eps, exact in log space even when x_dual underflows."""
        return -_PI_SQ / self.eps


def _log_modulus_k(ln_z: float):
    """ln k at nome z given ln z; tolerates z underflowed to 0.0."""
    z = math.exp(ln_z)
    z2 = z * z
    return (_LN4 + 0.5 * ln_z
            + 4.0 * log_multibase_product(-z2, (z2,))
            - 4.0 * log_multibase_product(-z, (z2,)))


def _log_modulus_kprime(ln_z: float):
    """ln k' at nome z given ln z."""
    z = math.exp(ln_z)
    z2 = z * z
    return (4.0 * log_multibase_product(z, (z2,))
            - 4.0 * log_multibase_product(-z, (z2,)))


def modulus_k(z: float) -> float:
    """k(z) = 4 z^{1/2} (-z^2;z^2)_inf^4 / (-z;z^2)_inf^4 for z in (0,1).

    Assembled in log space and exponentiated once, so the fourth powers
    cannot overflow or underflow on the way.
    """
    if not (0.0 < z < 1.0):
        raise InvalidSpec(f"nome must lie in (0,1), got {_brief(z)}")
    return math.exp(_log_modulus_k(math.log(z)))


def modulus_kprime(z: float) -> float:
    """k'(z) = (z;z^2)_inf^4 / (-z;z^2)_inf^4 for z in (0,1)."""
    if not (0.0 < z < 1.0):
        raise InvalidSpec(f"nome must lie in (0,1), got {_brief(z)}")
    return math.exp(_log_modulus_kprime(math.log(z)))


def log_correlation_length(p: ModelPoint) -> float:
    """ln xi, assembled fully in log space so it exists for every valid point.

    The two equal forms 1/xi = -1/2 ln k(x^2) = atanh(k(x~)) evaluate ln k
    at the nome x^2 or at the dual nome x~; the smaller nome is used:
      - x^2 < x~ (x < e^{-pi/sqrt 2} ~ 0.1085): the direct form;
      - otherwise the dual form, with k' = k(x~).  When k' drops below
        sqrt(3*eps_machine), atanh(k') = k' to working precision and
        ln xi = -ln k' is used outright (k' itself may underflow; its log
        never does).
    At the crossover x^2 = x~ both forms evaluate the same product.
    """
    # in the smaller nome k <= sqrt(2) - 1, so |ln k| >= 0.88 and nothing cancels
    if 2.0 * p.eps * p.eps > _PI_SQ:
        return -math.log(-0.5 * _log_modulus_k(-2.0 * p.eps))
    ln_kp = _log_modulus_k(p.ln_x_dual)
    if ln_kp <= _LN_KP_LINEAR:
        return -float(ln_kp)
    return -math.log(math.atanh(math.exp(ln_kp)))

