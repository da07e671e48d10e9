"""Asymptotic scaling near the isotropic point x -> 1 (eps -> 0).

Reference expansions:

    ln xi   = pi^2/(2 eps)  - ln 4     + O(eps),
    -ln f   = pi^2/(16 eps) - (ln 2)/4 + O(eps),

whose leading coefficients combine into the scaling law

    -ln f ~ (c/8) ln xi    with central charge c = 1.

The module provides the reference formulas, a deterministic least-squares
extractor for (A, B, C) in y ~ A/eps + B + C eps, and the conjecture ratio
-ln f / ln xi evaluated fully in log space so it survives arbitrarily small
eps.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .elliptic import ModelPoint, log_correlation_length
from .errors import InvalidSpec
from .fidelity import _QUARTER_LN2, fidelity
from .qseries import DEFAULT_TOL, Tolerance, _brief

#: (A, B) of the leading asymptotes A/eps + B of ln xi and of -ln f
LN_XI_COEFFS = (math.pi ** 2 / 2.0, -math.log(4.0))
MINUS_LN_F_COEFFS = (math.pi ** 2 / 16.0, -_QUARTER_LN2)
#: largest grid log_spaced builds
MAX_GRID_COUNT = 1_000_000


def ln_xi_reference(eps: float) -> float:
    """Leading asymptote pi^2/(2 eps) - ln 4 of ln xi."""
    if not (eps > 0.0):
        raise InvalidSpec(f"eps must be positive, got {eps!r}")
    a, b = LN_XI_COEFFS
    return a / eps + b


def minus_ln_f_reference(eps: float) -> float:
    """Leading asymptote pi^2/(16 eps) - (ln 2)/4 of -ln f."""
    if not (eps > 0.0):
        raise InvalidSpec(f"eps must be positive, got {eps!r}")
    a, b = MINUS_LN_F_COEFFS
    return a / eps + b


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

    Requires at least three finite samples at distinct positive eps, and a
    design matrix of full rank in floating point, which eps = (1e-16, 1, 745)
    lacks (rank 2); InvalidSpec otherwise.
    """
    pairs = [(float(e), float(y)) for e, y in samples]
    if len(pairs) < 3:
        raise InvalidSpec(f"need at least 3 samples, got {len(pairs)}")
    eps = np.array([e for e, _ in pairs])
    y = np.array([v for _, v in pairs])
    if not (np.all(np.isfinite(eps)) and np.all(np.isfinite(y))):
        raise InvalidSpec("all samples must be finite")
    if not np.all(eps > 0.0):
        raise InvalidSpec("all eps values must be positive")
    if len(set(eps.tolist())) != len(pairs):
        raise InvalidSpec("eps values must be distinct")

    design = np.column_stack([1.0 / eps, np.ones_like(eps), eps])
    coeffs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise InvalidSpec(
            f"design matrix rank {rank} < {design.shape[1]} columns")
    residual = float(np.max(np.abs(design @ coeffs - y)))
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
    if not (0.0 < lo <= hi < math.inf):
        raise InvalidSpec(f"need 0 < lo <= hi < inf, got {lo!r}, {hi!r}")
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


def conjecture_ratio(p: ModelPoint, tol: Tolerance = DEFAULT_TOL) -> float:
    """-ln f / ln xi, the quantity conjectured to approach c/8 = 0.125.

    Both logs come from the library's route selectors, which stay finite in
    log space at every valid point, so the ratio survives arbitrarily small
    eps and x (recommended regime eps <= 0.1; for larger eps the ratio has no
    distinguished interpretation and ln xi may even vanish).
    """
    ln_f = fidelity(p, tol).ln_f
    ln_xi = log_correlation_length(p, tol)
    if ln_xi == 0.0:
        raise InvalidSpec(f"ln xi vanishes at x={p.x!r}; ratio undefined")
    return -ln_f / ln_xi
