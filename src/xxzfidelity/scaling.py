"""Asymptotic scaling near the isotropic point x -> 1 (eps -> 0).

Reference expansions:

    ln xi   = pi^2/(2 eps)  - ln 4     + O(eps),
    -ln f   = pi^2/(16 eps) - (ln 2)/4 + O(eps),

whose leading coefficients combine into the scaling law

    -ln f ~ (c/8) ln xi    with central charge c = 1.

The module provides the reference formulas, a deterministic least-squares
extractor for (A, B, C) in y ~ A/eps + B + C eps, and ``evaluate_point``,
whose ``PointResult`` holds the pair (ln f, ln xi) of one point, with xi
and the conjecture ratio -ln f / ln xi derived from them; both logs stay
finite in log space, so the ratio survives arbitrarily small eps.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .elliptic import ModelPoint, log_correlation_length
from .errors import InvalidSpec, Overflow
from .fidelity import _QUARTER_LN2, FidelityResult, fidelity
from .qseries import DEFAULT_TOL, _HUGE, _LN_HUGE, Tolerance, _brief

#: (A, B) of the leading asymptotes A/eps + B of ln xi and of -ln f
LN_XI_COEFFS = (math.pi ** 2 / 2.0, -math.log(4.0))
MINUS_LN_F_COEFFS = (math.pi ** 2 / 16.0, -_QUARTER_LN2)
#: largest grid log_spaced builds
MAX_GRID_COUNT = 1_000_000


def _asymptote(coeffs: tuple[float, float], eps: float) -> float:
    """A/eps + B; Overflow at a subnormal eps, where A/eps leaves the range."""
    # compared before any arithmetic, so an integer of any size is refused
    if not (0.0 < eps <= _HUGE):
        raise InvalidSpec(f"eps must be positive and finite, got {_brief(eps)}")
    a, b = coeffs
    value = a / eps + b
    if math.isinf(value):
        raise Overflow(f"{a!r}/eps leaves the float range at eps={eps!r}")
    return value


def ln_xi_reference(eps: float) -> float:
    """Leading asymptote pi^2/(2 eps) - ln 4 of ln xi."""
    return _asymptote(LN_XI_COEFFS, eps)


def minus_ln_f_reference(eps: float) -> float:
    """Leading asymptote pi^2/(16 eps) - (ln 2)/4 of -ln f."""
    return _asymptote(MINUS_LN_F_COEFFS, eps)


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares coefficients of y ~ A/eps + B + C eps.

    max_residual is the worst absolute deviation of the fitted model from
    the samples.
    """

    A: float
    B: float
    C: float
    max_residual: float
    sample_count: int

    def model(self, eps: float) -> float:
        return self.A / eps + self.B + self.C * eps


def fit_asymptote(samples: Sequence[tuple[float, float]]) -> AsymptoticFit:
    """Deterministic least-squares fit in the basis {1/eps, 1, eps}.

    Requires at least three finite samples at distinct eps with eps and
    1/eps finite and positive, and a design matrix of full rank in floating
    point, which eps = (1e-16, 1, 745) lacks (rank 2); InvalidSpec
    otherwise.  Overflow when the fit leaves the float range.
    """
    pairs = [(e, y) for e, y in samples]
    if len(pairs) < 3:
        raise InvalidSpec(f"need at least 3 samples, got {len(pairs)}")
    # compared before float(), so an integer of any size is refused; a
    # subnormal eps would put 1/eps past the float range, where lstsq hangs
    if not all(1.0 / _HUGE < e <= _HUGE and abs(y) <= _HUGE for e, y in pairs):
        raise InvalidSpec("every sample needs a finite y, and eps and 1/eps "
                          "finite and positive")
    eps = np.array([float(e) for e, _ in pairs])
    y = np.array([float(v) for _, v in pairs])
    if len(set(eps.tolist())) != len(pairs):
        raise InvalidSpec("eps values must be distinct")

    design = np.column_stack([1.0 / eps, np.ones_like(eps), eps])
    coeffs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise InvalidSpec(
            f"design matrix rank {rank} < {design.shape[1]} columns")
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.max(np.abs(design @ coeffs - y)))
    if not (np.all(np.isfinite(coeffs)) and math.isfinite(residual)):
        raise Overflow("the fitted coefficients leave the float range")
    return AsymptoticFit(A=float(coeffs[0]), B=float(coeffs[1]),
                         C=float(coeffs[2]), max_residual=residual,
                         sample_count=len(pairs))


def _check_grid_count(count) -> None:
    """Raise InvalidSpec unless count is an integer in [1, MAX_GRID_COUNT]."""
    if not (isinstance(count, numbers.Integral)
            and 1 <= count <= MAX_GRID_COUNT):
        raise InvalidSpec(f"count must be an integer in [1, {MAX_GRID_COUNT}], "
                          f"got {_brief(count)}")


def log_spaced(lo: float, hi: float, count: int) -> list[float]:
    """count log-spaced values from lo to hi inclusive.

    Raises InvalidSpec, before allocating anything, for a count outside
    [1, MAX_GRID_COUNT].
    """
    # compared before numpy converts them, so an integer of any size is refused
    if not (0.0 < lo <= hi <= _HUGE):
        raise InvalidSpec(f"need 0 < lo <= hi < inf, got {_brief(lo)}, {_brief(hi)}")
    _check_grid_count(count)
    if lo == hi:
        return [lo] * count
    return [float(v) for v in np.geomspace(lo, hi, count)]


def collect_minus_ln_f(eps_values: Iterable[float],
                       tol: Tolerance = DEFAULT_TOL) -> list[tuple[float, float]]:
    """(eps, -ln f) samples for asymptotic fits."""
    return [(e, -fidelity(ModelPoint.from_eps(e), tol).ln_f)
            for e in eps_values]


def collect_ln_xi(eps_values: Iterable[float],
                  tol: Tolerance = DEFAULT_TOL) -> list[tuple[float, float]]:
    """(eps, ln xi) samples for asymptotic fits."""
    return [(e, log_correlation_length(ModelPoint.from_eps(e), tol))
            for e in eps_values]


@dataclass(frozen=True)
class PointResult:
    """ln f (with its route and error estimate) and ln xi at one point.

    Each value is stored once; xi and the conjecture ratio -ln f / ln xi,
    which approaches c/8 = 0.125 as eps -> 0, are derived on access.
    """

    fidelity: FidelityResult
    ln_xi: float

    @property
    def xi(self) -> float:
        """e^{ln_xi}, or inf once it exceeds the double range (eps < ~0.0067)."""
        return math.exp(self.ln_xi) if self.ln_xi <= _LN_HUGE else math.inf

    @property
    def ratio(self) -> float:
        """-ln f / ln xi, or inf where ln xi vanishes (xi = 1, x ~ 0.034).

        Meaningful in the scaling regime eps <= 0.1; for larger eps it has
        no distinguished interpretation.
        """
        if self.ln_xi == 0.0:
            return math.inf
        return -self.fidelity.ln_f / self.ln_xi


def evaluate_point(p: ModelPoint, tol: Tolerance = DEFAULT_TOL) -> PointResult:
    """f and xi at p, each from the library's route selector."""
    return PointResult(fidelity(p, tol), log_correlation_length(p, tol))
