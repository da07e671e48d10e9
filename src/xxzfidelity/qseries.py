"""Multi-base q-Pochhammer infinite products.

The central object is

    (z; a_1, ..., a_N)_inf = prod_{n_1,...,n_N >= 0} (1 - z a_1^{n_1} ... a_N^{n_N})

Both evaluation strategies take the same arguments (z, bases, tol), checked
against one shared domain, |z| <= 1 and a nonempty sequence of bases in
[0, 1); each adds the one condition its own maths needs:

* ``qproduct_direct`` multiplies the lattice factors themselves, truncating
  the multi-index lattice by total weight w = a_1^{n_1}...a_N^{n_N}; it
  builds the retained lattice one direction at a time as numpy arrays and
  sums ln(1 - z w) pairwise, slab by slab.  It takes ln a_i, so every base
  must be > 0; z = +-1 is legal.  It returns the product itself;
* ``log_multibase_product`` sums the logarithmic series

      ln (z; a_1,...,a_N)_inf = -sum_{m>=1} z^m / (m prod_i (1 - a_i^m)),

  valid for |z| < 1 (expand ln(1 - z w) per factor and sum the geometric
  series over each index).  It returns the log of the product.

Their agreement is the workhorse cross-check for every identity used
downstream.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidSpec, NonConvergent, Overflow

#: default relative-error target of every truncated evaluation
DEFAULT_REL_TOL = 1e-12
#: default term caps (retained lattice factors / series terms)
DIRECT_MAX_TERMS = 10_000_000
SERIES_MAX_TERMS = 1_000_000
#: points of the last direction expanded at once by the direct product
_SLAB = 1 << 18

_MIN_REL_TOL = 10.0 * sys.float_info.epsilon
#: the largest finite double, and its log
_HUGE = sys.float_info.max
_LN_HUGE = math.log(_HUGE)


def _brief(value) -> str:
    """repr(value), or the size of an integer too long for str() to print."""
    if isinstance(value, numbers.Integral) and int(value).bit_length() > 1024:
        return f"<an integer of {int(value).bit_length()} bits>"
    return repr(value)


@dataclass(frozen=True)
class Tolerance:
    """Relative-error target plus a hard cap on retained terms.

    ``max_terms=None`` defers to the per-strategy default
    (``DIRECT_MAX_TERMS`` or ``SERIES_MAX_TERMS``).
    """

    rel_tol: float = DEFAULT_REL_TOL
    max_terms: int | None = None

    def __post_init__(self):
        if not (_MIN_REL_TOL <= self.rel_tol < 1.0):
            raise InvalidSpec(
                f"rel_tol must lie in [{_MIN_REL_TOL:.2e}, 1) (10 x machine "
                f"epsilon up to 1), got {_brief(self.rel_tol)}")
        if self.max_terms is not None and not (
                isinstance(self.max_terms, numbers.Integral) and self.max_terms >= 1):
            raise InvalidSpec(
                f"max_terms must be an integer >= 1, got {_brief(self.max_terms)}")

    def cap(self, default: int) -> int:
        return default if self.max_terms is None else self.max_terms


DEFAULT_TOL = Tolerance()


def _check_product(z, bases) -> None:
    """Raise InvalidSpec unless |z| <= 1 and bases is a nonempty sequence of
    values in [0, 1), the domain both strategies share.

    The log series runs this on every call, so it only compares: nan fails
    every comparison, and an integer of any size compares exactly.
    """
    if not abs(z) <= 1.0:
        raise InvalidSpec(f"|z| <= 1 required, got z={_brief(z)}")
    if len(bases) == 0:
        raise InvalidSpec("bases must be nonempty")
    for b in bases:
        if not 0.0 <= b < 1.0:
            raise InvalidSpec(f"every base must lie in [0,1), got {_brief(b)}")


def log_multibase_product(z: float, bases: Sequence[float],
                          tol: Tolerance = DEFAULT_TOL) -> float:
    """ln (z; a_1,...,a_N)_inf via the logarithmic series.

    On top of the shared domain the series requires |z| < 1 strictly.  A
    base equal to 0.0 is legal (it contributes a single lattice slice, and
    its geometric sums collapse to 1), which lets callers pass dual-nome
    powers that underflowed to zero.

    Stopping rule: the geometric tail bound |term_m| * |z| / (1 - |z|)
    (valid because successive terms shrink at least by |z|) must drop below
    rel_tol times the accumulated sum.  The sum's scale is set by its first
    term and never cancels away, so the relative test needs no absolute
    floor beyond the z = 0 short-circuit.  A sum past the float range raises
    Overflow (bases so close to 1 that the denominators underflow).
    """
    _check_product(z, bases)
    if not abs(z) < 1.0:
        raise InvalidSpec(f"log series requires |z| < 1, got z={z!r}")
    if z == 0.0:
        return 0.0

    rel_tol = tol.rel_tol
    max_terms = tol.cap(SERIES_MAX_TERMS)
    az = abs(z)
    tail_factor = az / (1.0 - az)

    acc = 0.0
    zp = 1.0
    powers = [1.0 for _ in bases]

    for m in range(1, max_terms + 1):
        zp = zp * z
        denom = 1.0
        for i, b in enumerate(bases):
            powers[i] = powers[i] * b
            denom = denom * (1.0 - powers[i])
        try:
            term = zp / (m * denom)
        except ZeroDivisionError:  # the denominator underflowed to 0
            term = math.inf
        acc = acc - term
        bound = abs(term) * tail_factor
        if not bound > rel_tol * abs(acc):  # an inf or nan sum stops here too
            break
    else:
        raise NonConvergent(
            f"log series for (z={z}; {tuple(bases)}) did not reach rel_tol={rel_tol} "
            f"within {max_terms} terms")
    if not math.isfinite(acc):
        raise Overflow(f"log series for (z={z}; {tuple(bases)}) leaves the float range")
    return float(acc)


def _exp(ln_value: float, what) -> float:
    """e^ln_value, raising Overflow where it leaves the double range."""
    if ln_value > _LN_HUGE:
        raise Overflow(f"{what} = exp({ln_value:.6g}) exceeds the float range")
    return math.exp(ln_value)


def _runs(w, counts, ends, table, lo, hi):
    """Weights of points lo..hi-1 of the runs w[p] * table[0:counts[p]],
    laid end to end (ends = cumsum(counts); every count is >= 1)."""
    first = int(np.searchsorted(ends, lo, side="right"))
    stop = int(np.searchsorted(ends, hi, side="left")) + 1
    run_ends = ends[first:stop]
    run_starts = run_ends - counts[first:stop]
    lengths = np.minimum(run_ends, hi) - np.maximum(run_starts, lo)
    offset = np.arange(lo, hi) - np.repeat(run_starts, lengths)
    return np.repeat(w[first:stop], lengths) * table[offset]


def _direct_pass(z, bases, suffix_mass, cutoff, max_terms):
    """One truncated sweep of the factor lattice at a fixed weight cutoff.

    Returns (log_acc, omitted_mass, zero_factor, count).  The lattice is
    built one direction at a time: every retained prefix of weight w keeps
    the K points n >= 0 of direction i with w * a_i^n > cutoff, and the
    first pruned one, w * a_i^K, stands for the whole pruned subtree of
    weight w a_i^K / (1 - a_i) * prod_{j>i} 1/(1 - a_j), so omitted_mass is
    the exact total weight of all pruned lattice points.

    K is estimated as floor(ln(cutoff/w) / ln a_i) + 1, then moved by one
    where the comparison w * a_i^n > cutoff on the power table says so.
    max_terms is checked twice per direction: on the estimates, less one
    per prefix, before anything sized by K (the power table included) is
    allocated, and on the exact total.  Raising at an inner direction
    agrees with capping the last one, because every retained prefix keeps
    at least its n = 0 point in the next direction.  The last direction is
    expanded and summed in slabs of _SLAB points, so memory stays bounded
    by the inner directions, and each slab ends in one pairwise np.sum of
    log1p(-z w).
    """
    w = np.ones(1)
    omitted = 0.0
    log_acc = 0.0
    last = len(bases) - 1
    for i, b in enumerate(bases):
        est = np.floor(np.log(cutoff / w) / math.log(b)) + 1.0
        if np.maximum(est - 1.0, 0.0).sum() > max_terms:
            raise NonConvergent(
                f"direct product exceeded max_terms={max_terms} "
                f"at cutoff={cutoff:.3e}")
        counts = np.maximum(est, 0.0).astype(np.int64)
        table = b ** np.arange(counts.max() + 2, dtype=float)
        counts -= (counts > 0) & (w * table[np.maximum(counts - 1, 0)] <= cutoff)
        counts += w * table[counts] > cutoff
        count = int(counts.sum())
        if count > max_terms:
            raise NonConvergent(
                f"direct product exceeded max_terms={max_terms} "
                f"at cutoff={cutoff:.3e}")
        omitted += (float(np.sum(w * table[counts])) / (1.0 - b)
                    * suffix_mass[i + 1])
        ends = np.cumsum(counts)
        if i < last:
            w = _runs(w, counts, ends, table, 0, count)
            continue
        for lo in range(0, count, _SLAB):
            zw = z * _runs(w, counts, ends, table, lo, min(lo + _SLAB, count))
            if (zw == 1.0).any():
                return log_acc, omitted, True, count
            log_acc += float(np.sum(np.log1p(-zw)))
    return log_acc, omitted, False, count


def qproduct_direct(z: float, bases: Sequence[float],
                    tol: Tolerance = DEFAULT_TOL) -> float:
    """(z; a_1,...,a_N)_inf by direct factor multiplication.

    On top of the shared domain every base must be > 0, since the lattice
    counts take ln a_i.

    Lattice points are retained while their weight exceeds a cutoff that
    starts at rel_tol/10 and is tightened until the omitted log-mass bound

        |z| * (omitted weight) / (1 - |z| cutoff)

    drops below rel_tol (each omitted factor satisfies
    |ln(1 - z w)| <= |z| w / (1 - |z| cutoff) since w <= cutoff).
    Accumulation happens on ln(1 - z w) so tiny products cannot underflow
    prematurely.  z = +-1 is legal here: a factor that is exactly zero
    short-circuits the whole product to 0.  A product beyond the double
    range raises Overflow.

    The certificate covers truncation only, not the rounding of the sum of
    up to max_terms logarithms.  Summed pairwise, that rounding stays below
    rel_tol: (0.5; 0.8, 0.8, 0.8), about a million factors, misses 30-digit
    mpmath by 8e-13 in ln, where a sequential sum missed by 5e-11.
    """
    _check_product(z, bases)
    if not min(bases) > 0.0:
        raise InvalidSpec(f"the direct product needs every base > 0, got {bases!r}")
    if z == 0.0:
        return 1.0
    rel_tol = tol.rel_tol
    max_terms = tol.cap(DIRECT_MAX_TERMS)
    n_dim = len(bases)

    # suffix_mass[i] = total weight of the sub-lattice over directions j >= i
    suffix_mass = [1.0] * (n_dim + 1)
    for i in range(n_dim - 1, -1, -1):
        suffix_mass[i] = suffix_mass[i + 1] / (1.0 - bases[i])

    cutoff = rel_tol / 10.0
    for _attempt in range(6):
        log_acc, omitted, zero_factor, _count = _direct_pass(
            z, bases, suffix_mass, cutoff, max_terms)
        if zero_factor:
            return 0.0
        est = abs(z) * omitted / (1.0 - abs(z) * cutoff)
        if est <= rel_tol:
            return _exp(log_acc, f"({z}; {bases})_inf")
        cutoff *= max(min(rel_tol / (2.0 * est), 0.5), 1e-6)
    raise NonConvergent(
        f"direct product ({z}; {bases})_inf could not certify rel_tol={rel_tol}")


def verify_qcalc_identities(x: float, z: float, b: int, c: int,
                            tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Residuals of the two base-splitting product identities.

    r1:  (z; x^{2b}, x^c) (z x^b; x^{2b}, x^c)  =  (z; x^b, x^c)
         (splitting the first geometric direction into even/odd multiples)
    r2:  (z; x^b, x^c) (-z; x^b, x^c)           =  (z^2; x^{2b}, x^{2c})
         (pairing factors of opposite sign)

    Each of the five distinct products is evaluated once with the direct
    and once with the log-series strategy; each residual is
    |LHS - RHS| / |RHS|, the worse of the two strategies.
    """
    if not (0.0 < x < 1.0):
        raise InvalidSpec(f"x must lie in (0,1), got {_brief(x)}")
    # range first: it rejects nan and inf, and keeps huge ints from repr()
    if not all(1 <= v <= sys.float_info.max for v in (b, c)):
        raise InvalidSpec("b, c must lie in [1, sys.float_info.max]")
    if not all(int(v) == v for v in (b, c)):
        raise InvalidSpec(f"b, c must be positive integers, got {b!r}, {c!r}")
    if not (abs(z) < 1.0):
        raise InvalidSpec(f"identity check requires |z| < 1, got {_brief(z)}")
    if z == 0.0:
        return (0.0, 0.0)

    xb, xc = x ** b, x ** c
    x2b, x2c = x ** (2 * b), x ** (2 * c)
    products = ((z, (x2b, xc)), (z * xb, (x2b, xc)), (z, (xb, xc)),
                (-z, (xb, xc)), (z * z, (x2b, x2c)))

    def residuals(even, odd, whole, negated, squared):
        return (abs((even * odd - whole) / whole),
                abs((whole * negated - squared) / squared))

    d1, d2 = residuals(*[qproduct_direct(zz, bases, tol)
                         for zz, bases in products])
    s1, s2 = residuals(*[_exp(log_multibase_product(zz, bases, tol),
                              f"({zz}; {bases})_inf")
                         for zz, bases in products])
    return (max(d1, s1), max(d2, s2))


def minus_one_peel_residual(a: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Residual of peeling the n_1 = 0 slice off the z = -1 two-base product:

        (-a; a, a)_inf = (-1; a, a)_inf / (2 (-a; a)_inf).

    The left side uses the log series, the right side the direct product
    (the only strategy defined at z = -1), so the check is two-strategy.
    """
    lhs = _exp(log_multibase_product(-a, (a, a), tol), f"(-a; a, a) at a={a}")
    minus_one = qproduct_direct(-1.0, (a, a), tol)
    single = _exp(log_multibase_product(-a, (a,), tol), f"(-a; a) at a={a}")
    rhs = minus_one / (2.0 * single)
    return abs((lhs - rhs) / rhs)
