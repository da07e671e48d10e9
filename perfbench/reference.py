"""Reference values the benchmark checks the program's outputs against.

Nothing here imports the package under test.  Two references exist for the
point workloads:

* ``mp_ln_f`` / ``mp_ln_xi``: 40-digit mpmath, the ground truth.  ln f is
  the modular formula with ``mpmath.qp`` for the dual-nome products and
  ``mpmath.nsum`` for ln g; ln xi is -ln atanh(k') with
  k' = ``mpmath.kfrom(q=e^(-pi^2/eps))``.  About 30 ms per point.
* ``ln_f`` / ``ln_xi``: the same formulas in vectorised float64, a few
  microseconds per point, so that every output of a run can be checked.
  ln g comes from its alternating series for eps > ``LN_G_SWITCH_EPS`` and
  from its small-eps expansion below, so the cost does not grow as eps -> 0.
  Each run checks this reference against the mpmath one on a sample of its
  own inputs (``float_reference_error``).

The finite-chain values for the ED workload are frozen in ``ED_TABLE``.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np

MP_DPS = 40

# 50-digit values of ln f at x = 0.5 and x = 0.8 (the anchors of the
# package's own fidelity tests)
LN_F_ANCHORS = {"0.5": "-0.68072159083328070407",
                "0.8": "-2.587911397967448257313"}

#: below this eps ln g comes from its small-eps expansion
LN_G_SWITCH_EPS = 0.05
_LN_G_ORDER = 24
# the alternating series is summed until exp(-2 eps N) < e^-41 (~1e-18)
_LN_G_DECADES = 41.0


def mp_ln_g(eps) -> mpmath.mpf:
    """ln g = sum_{N>=1} (-1)^{N+1} / (N (1 + e^{-2 eps N})^2) by nsum."""
    with mpmath.workdps(MP_DPS):
        q = mpmath.exp(-2 * mpmath.mpf(eps))
        return mpmath.nsum(
            lambda n: (-1) ** (int(n) + 1) / (n * (1 + q ** n) ** 2),
            [1, mpmath.inf])


def mp_ln_f(eps) -> mpmath.mpf:
    """ln f = -eps/4 + ln(x~)/16 + ln (-x~; x~) - ln (x~^(1/2); x~) + ln g."""
    with mpmath.workdps(MP_DPS):
        eps = mpmath.mpf(eps)
        ln_xt = -mpmath.pi ** 2 / eps
        xt = mpmath.exp(ln_xt)
        return (-eps / 4 + ln_xt / 16 + mpmath.log(mpmath.qp(-xt, xt))
                - mpmath.log(mpmath.qp(mpmath.sqrt(xt), xt)) + mp_ln_g(eps))


def mp_ln_xi(eps) -> mpmath.mpf:
    """ln xi = -ln atanh(k'(x)), with k'(x) = k(x~) from mpmath.kfrom."""
    with mpmath.workdps(MP_DPS):
        xt = mpmath.exp(-mpmath.pi ** 2 / mpmath.mpf(eps))
        return -mpmath.log(mpmath.atanh(mpmath.kfrom(q=xt)))


def check_mp_anchors(tol: float = 1e-18) -> None:
    """Raise unless the mpmath reference reproduces the 50-digit anchors."""
    for x, anchor in LN_F_ANCHORS.items():
        with mpmath.workdps(MP_DPS):
            got = mp_ln_f(-mpmath.log(mpmath.mpf(x)))
            err = abs(got - mpmath.mpf(anchor))
        if err > tol:
            raise AssertionError(
                f"mpmath ln f at x={x} is off its anchor by {float(err):.2e}")


def _ln_g_expansion_coefficients(order: int) -> np.ndarray:
    """c_k of ln g = (ln 2)/4 + sum_{k>=1} c_k eps^k.

    Mellin transform of the series: with w(t) = (1 + e^{-t})^{-2} and its
    Taylor coefficients w_k, c_k = w_k eta(1 - k) 2^k (eta is the Dirichlet
    eta function, so c_k = 0 for odd k >= 3).
    """
    with mpmath.workdps(60):
        w = mpmath.taylor(lambda t: (1 + mpmath.exp(-t)) ** -2, 0, order)
        return np.array([float(w[k] * mpmath.altzeta(1 - k) * 2 ** k)
                         for k in range(order + 1)])


_LN_G_COEFFS = _ln_g_expansion_coefficients(_LN_G_ORDER)


def _ln_g_series(eps: np.ndarray) -> np.ndarray:
    """ln g = ln 2 - sum (-1)^{N+1} u_N / N, u_N = 1 - (1 + e^{-2 eps N})^{-2}."""
    out = np.empty_like(eps)
    order = np.argsort(eps)
    for block in np.array_split(order, max(1, len(order) // 256)):
        if block.size == 0:
            continue
        e = eps[block][:, None]
        n = np.arange(1.0, math.ceil(_LN_G_DECADES / (2.0 * e.min())) + 1.0)
        y = np.exp(-2.0 * e * n)
        u = y * (2.0 + y) / (1.0 + y) ** 2
        signs = np.where(n % 2 == 1.0, 1.0, -1.0)
        out[block] = math.log(2.0) - (signs * u / n).sum(axis=1)
    return out


def ln_g(eps) -> np.ndarray:
    """Vectorised float64 ln g at each eps > 0."""
    eps = np.asarray(eps, dtype=float)
    out = np.empty_like(eps)
    small = eps <= LN_G_SWITCH_EPS
    if small.any():
        e = eps[small]
        acc = np.zeros_like(e)
        for c in _LN_G_COEFFS[:0:-1]:
            acc = (acc + c) * e
        out[small] = _LN_G_COEFFS[0] + acc
    if (~small).any():
        out[~small] = _ln_g_series(eps[~small])
    return out


def _dual_log_products(eps: np.ndarray, offsets, stride: int) -> list[np.ndarray]:
    """sum_{n>=0} log1p(s * x~^(stride n + a)) for each (a, s) in offsets."""
    ln_xt = -math.pi ** 2 / eps
    # x~^m < 1e-18 once m * |ln x~| > 41
    terms = int(math.ceil(_LN_G_DECADES / (stride * np.abs(ln_xt).min()))) + 2
    n = np.arange(terms, dtype=float)[None, :]
    return [np.log1p(s * np.exp((stride * n + a) * ln_xt[:, None])).sum(axis=1)
            for a, s in offsets]


def ln_f(eps) -> np.ndarray:
    """Vectorised float64 ln f (modular formula) at each eps > 0."""
    eps = np.asarray(eps, dtype=float)
    plus, minus_half = _dual_log_products(eps, ((1.0, 1.0), (0.5, -1.0)), 1)
    return -eps / 4.0 - math.pi ** 2 / (16.0 * eps) + plus - minus_half + ln_g(eps)


def ln_xi(eps) -> np.ndarray:
    """Vectorised float64 ln xi = -ln atanh(k'), k' = k(x~) in log space."""
    eps = np.asarray(eps, dtype=float)
    even, odd = _dual_log_products(eps, ((2.0, 1.0), (1.0, 1.0)), 2)
    ln_kp = math.log(4.0) - math.pi ** 2 / (2.0 * eps) + 4.0 * (even - odd)
    # atanh(k') = k' (1 + k'^2/3 + ...): below k' = e^-30 the correction
    # is under 1e-26 and k' itself may underflow
    kp = np.exp(np.maximum(ln_kp, -30.0))
    return np.where(ln_kp < -30.0, -ln_kp, -np.log(np.arctanh(kp)))


def float_reference_error(eps_values) -> tuple[float, float]:
    """Worst float-vs-mpmath error over eps_values, as (ln f, ln xi).

    Both are relative; ln f's is taken against max(|ln f|, 1), because the
    program's error bound on ln f is absolute (the relative error of f).
    """
    eps_values = np.asarray(eps_values, dtype=float)
    f_err = xi_err = 0.0
    for e, lf, lx in zip(eps_values, ln_f(eps_values), ln_xi(eps_values)):
        e = float(e)
        ref_f = float(mp_ln_f(e))
        f_err = max(f_err, abs(lf - ref_f) / max(abs(ref_f), 1.0))
        ref_xi = float(mp_ln_xi(e))
        xi_err = max(xi_err, abs(lx - ref_xi) / abs(ref_xi))
    return f_err, xi_err


#: f_L with Néel pinning on the ED workload's x grid, frozen from the
#: package when the benchmark was defined by ``perfbench/freeze_ed.py``
ED_TABLE: dict[float, dict[int, float]] = {
    0.1: {8: 0.9713362484526097, 12: 0.9707799049998309, 14: 0.9708149835421985,
          16: 0.9706969710857659, 18: 0.9707034520155294},
    0.2: {8: 0.9103850129763998, 12: 0.8995519516351796, 14: 0.9009850580938603,
          16: 0.8945994306173815, 18: 0.8956381956185909},
    0.3: {8: 0.8668306208927121, 12: 0.840229664104075, 14: 0.8379173496873893,
          16: 0.8228614342933952, 18: 0.8233924474125373},
    0.4: {8: 0.8479368135046528, 12: 0.8137203425535963, 14: 0.7918459714982128,
          16: 0.7893248478982356, 18: 0.7734534121467022},
    0.5: {8: 0.8414229710305183, 12: 0.8050825728415277, 14: 0.7579132578651925,
          16: 0.7787263915608894, 18: 0.7377604642535259},
}
