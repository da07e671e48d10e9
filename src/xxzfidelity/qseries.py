"""Multi-base q-Pochhammer infinite products.

The central object is

    (z; a_1, ..., a_N)_inf = prod_{n_1,...,n_N >= 0} (1 - z a_1^{n_1} ... a_N^{n_N})

Both evaluation strategies take the same arguments (z, bases), checked
against one shared domain, |z| <= 1 and a nonempty sequence of bases in
[0, 1), and both stop at the same relative-error target REL_TOL; each adds
the one condition its own maths needs:

* ``qproduct_direct`` multiplies the lattice factors themselves, truncating
  the multi-index lattice by total weight w = a_1^{n_1}...a_N^{n_N}; it
  builds the retained lattice one direction at a time as numpy arrays and
  sums ln(1 - z w) pairwise, slab by slab.  It takes ln a_i, so every base
  must be > 0; z = +-1 is legal.  It returns the product itself;
* ``log_multibase_product`` sums the logarithmic series

      ln (z; a_1,...,a_N)_inf = -sum_{m>=1} z^m / (m prod_i (1 - a_i^m)),

  valid for |z| < 1 (expand ln(1 - z w) per factor and sum the geometric
  series over each index).  It takes a box of the largest factors one by
  one (the origin alone or, where |z| exceeds _PEEL_RATE, up to _PEEL_BOX
  factors, so that the rest shrinks at least by _PEEL_RATE a term) and sums
  the rest of the lattice by the same series, each term weighted by the
  share of the lattice outside the box.  Its term loop is written for one
  base, for two (the arities f uses) and, over lists, for more; it returns
  the log of the product.

Their agreement is the workhorse cross-check for every identity used
downstream.
"""
from __future__ import annotations

import math
import sys
from typing import Sequence

from .errors import _LN_HUGE, _brief, InvalidSpec, NonConvergent, Overflow

#: relative-error target of every truncated evaluation, and the term caps:
#: retained lattice factors of the direct product, terms of the log series;
#: all read at call time, and past either cap the product raises NonConvergent
REL_TOL = 1e-12
DIRECT_MAX_TERMS = 10_000_000
SERIES_MAX_TERMS = 1_000_000
#: points of the last direction expanded at once by the direct product
_SLAB = 1 << 18
#: the log series takes the box n_i < k_i of lattice factors one by one:
#: where |z| > _PEEL_RATE, k_i the least with |z| a_i^{k_i} <= _PEEL_RATE if
#: that box holds at most _PEEL_BOX factors, and the origin alone otherwise
_PEEL_RATE = 0.12
_PEEL_BOX = 36


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


def _peel_box(az, bases):
    """Weights of the box's factors, origin first, and y_i = a_i^{k_i} for
    |z| = az > _PEEL_RATE.  Its own function: up to Python 3.11 its
    comprehension would make the series' loop variable b a cell."""
    ln_gap = math.log(_PEEL_RATE / az)
    weights = [1.0]
    ys = []
    for b in bases:
        k = math.ceil(ln_gap / math.log(b)) if b > 0.0 else 1
        if len(weights) * k > _PEEL_BOX:
            return [1.0], bases
        if k > 1:
            weights = [w * b ** j for w in weights for j in range(k)]
        ys.append(b ** k)
    return weights, ys


def log_multibase_product(z: float, bases: Sequence[float]) -> float:
    """ln (z; a_1,...,a_N)_inf via the logarithmic series.

    On top of the shared domain the series requires |z| < 1 strictly.  A
    base equal to 0.0 is legal (it contributes a single lattice slice, and
    its geometric sums collapse to 1), which lets callers pass dual-nome
    powers that underflowed to zero.

    The box n_i < k_i of lattice factors, every k_i >= 1, is taken one
    factor at a time as log1p(-z w): the origin alone (k_i = 1), or where
    |z| > _PEEL_RATE a box of at most _PEEL_BOX factors (see _PEEL_RATE;
    bases near 1 keep the origin).  The rest of the lattice has weight
    sum^m  E_m / prod_i (1 - a_i^m), with E_m = 1 - prod_i (1 - y_i^m) and
    y_i = a_i^{k_i}, so its log is the series
    -sum_m z^m E_m / (m prod_i (1 - a_i^m)).  E_m is built as
    E <- y_i^m + (1 - y_i^m) E from positive terms, so nothing cancels.

    Stopping rule: since max_i y_i^m <= E_m <= sum_i y_i^m for any k_i >= 1
    and the denominators grow with m, every later term j is at most
    N r^{j-m} times term m, with r = |z| max_i y_i, so the tail bound
    |term_m| * N r / (1 - r) must drop below REL_TOL times the accumulated
    sum.  The sum's scale is set by the box, which holds the largest
    factor and never cancels away, so the relative test needs no absolute
    floor beyond the z = 0 short-circuit.  Past SERIES_MAX_TERMS series
    terms (the box factors do not count) it raises NonConvergent; a sum
    past the float range raises Overflow (bases so close to 1 that the
    denominators underflow).

    The term loop keeps each power in a local for one base and for two,
    and in lists for more, with the same float operations in the same
    order (1.0 * (1 - a^m) and y + (1 - y) * 0.0 are exact), so the bits
    do not depend on the loop.  Only the list loop guards a zero
    denominator: one or two factors 1 - a^m >= 2^-53 make at least 2^-106.
    """
    _check_product(z, bases)
    az = abs(z)
    if not az < 1.0:
        raise InvalidSpec(f"log series requires |z| < 1, got z={z!r}")
    if z == 0.0:
        return 0.0

    n = len(bases)
    acc = math.log1p(-z)  # the origin, box[0]
    ys = bases
    if az > _PEEL_RATE:
        box, ys = _peel_box(az, bases)
        for w in box[1:]:
            acc = acc + math.log1p(-z * w)

    rel_tol = REL_TOL
    rate = az * max(ys)
    tail_factor = n * rate / (1.0 - rate)
    terms = range(1, SERIES_MAX_TERMS + 1)
    zp = 1.0

    if n == 1:
        (a,), (y_step,) = bases, ys
        p = y = 1.0
        for m in terms:
            zp = zp * z
            p = p * a
            y = y * y_step
            term = zp * y / (m * (1.0 - p))
            acc = acc - term
            if not abs(term) * tail_factor > rel_tol * abs(acc):
                break
        else:
            acc = None
    elif n == 2:
        (a1, a2), (y1_step, y2_step) = bases, ys
        p1 = p2 = y1 = y2 = 1.0
        for m in terms:
            zp = zp * z
            p1 = p1 * a1
            y1 = y1 * y1_step
            p2 = p2 * a2
            y2 = y2 * y2_step
            term = zp * (y2 + (1.0 - y2) * y1) / (m * ((1.0 - p1) * (1.0 - p2)))
            acc = acc - term
            if not abs(term) * tail_factor > rel_tol * abs(acc):
                break
        else:
            acc = None
    else:
        powers = [1.0] * n
        y_powers = [1.0] * n
        for m in terms:
            zp = zp * z
            denom = 1.0
            e = 0.0
            for i, b in enumerate(bases):
                powers[i] = p = powers[i] * b
                y_powers[i] = y = y_powers[i] * ys[i]
                denom = denom * (1.0 - p)
                e = y + (1.0 - y) * e
            try:
                term = zp * e / (m * denom)
            except ZeroDivisionError:  # the denominator underflowed to 0
                term = math.inf
            acc = acc - term
            if not abs(term) * tail_factor > rel_tol * abs(acc):  # inf, nan stop too
                break
        else:
            acc = None
    if acc is None:
        raise NonConvergent(
            f"log series for (z={z}; {tuple(bases)}) did not reach rel_tol={rel_tol} "
            f"within {SERIES_MAX_TERMS} terms")
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
    import numpy as np  # loaded only where the direct product runs
    first = int(np.searchsorted(ends, lo, side="right"))
    stop = int(np.searchsorted(ends, hi, side="left")) + 1
    run_ends = ends[first:stop]
    run_starts = run_ends - counts[first:stop]
    lengths = np.minimum(run_ends, hi) - np.maximum(run_starts, lo)
    offset = np.arange(lo, hi) - np.repeat(run_starts, lengths)
    return np.repeat(w[first:stop], lengths) * table[offset]


def _omitted_log_bound(z, omitted, cutoff):
    """Bound on |sum ln(1 - z w)| over pruned lattice points of total weight
    omitted, each w <= cutoff: |ln(1 - z w)| <= |z| w / (1 - |z| cutoff)."""
    return abs(z) * omitted / (1.0 - abs(z) * cutoff)


def _direct_pass(z, bases, suffix_mass, cutoff, max_terms):
    """One truncated sweep of the factor lattice at a fixed weight cutoff.

    Returns (log_acc, omitted_mass, count).  The lattice is built one
    direction at a time: every retained prefix of weight w keeps the K
    points n >= 0 of direction i with w * a_i^n > cutoff, and the first
    pruned one, w * a_i^K, stands for the whole pruned subtree of weight
    w a_i^K / (1 - a_i) * prod_{j>i} 1/(1 - a_j), so omitted_mass is the
    exact total weight of all pruned lattice points.

    K is estimated as floor(ln(cutoff/w) / ln a_i) + 1, then moved by one
    where the comparison w * a_i^n > cutoff on the power table says so.
    max_terms is checked twice per direction: on the estimates, less one
    per prefix, before anything sized by K (the power table included) is
    allocated, and on the exact total.  Raising at an inner direction
    agrees with capping the last one, because every retained prefix keeps
    at least its n = 0 point in the next direction.

    omitted_mass and count are complete before the last direction is
    expanded, so a pass whose _omitted_log_bound exceeds REL_TOL (read at
    call time) returns there with log_acc None and sums nothing.
    Otherwise the last direction is expanded and summed in slabs of _SLAB
    points, so memory stays bounded by the inner directions, and each slab
    ends in one pairwise np.sum of log1p(-z w).  z must not be 1: every
    weight but the origin's is below 1, so only z = 1 makes a factor
    1 - z w zero.
    """
    import numpy as np  # loaded only where the direct product runs
    w = np.ones(1)
    omitted = 0.0
    last = len(bases) - 1
    for i, b in enumerate(bases):
        est = np.floor(np.log(cutoff / w) / math.log(b)) + 1.0
        if np.maximum(est - 1.0, 0.0).sum() > max_terms:
            raise NonConvergent(
                f"direct product exceeded {max_terms} lattice points "
                f"at cutoff={cutoff:.3e}")
        counts = np.maximum(est, 0.0).astype(np.int64)
        table = b ** np.arange(counts.max() + 2, dtype=float)
        counts -= (counts > 0) & (w * table[np.maximum(counts - 1, 0)] <= cutoff)
        counts += w * table[counts] > cutoff
        count = int(counts.sum())
        if count > max_terms:
            raise NonConvergent(
                f"direct product exceeded {max_terms} lattice points "
                f"at cutoff={cutoff:.3e}")
        omitted += (float(np.sum(w * table[counts])) / (1.0 - b)
                    * suffix_mass[i + 1])
        ends = np.cumsum(counts)
        if i < last:
            w = _runs(w, counts, ends, table, 0, count)
    if not _omitted_log_bound(z, omitted, cutoff) <= REL_TOL:
        return None, omitted, count
    log_acc = 0.0
    for lo in range(0, count, _SLAB):
        zw = z * _runs(w, counts, ends, table, lo, min(lo + _SLAB, count))
        log_acc += float(np.sum(np.log1p(-zw)))
    return log_acc, omitted, count


def qproduct_direct(z: float, bases: Sequence[float]) -> float:
    """(z; a_1,...,a_N)_inf by direct factor multiplication.

    On top of the shared domain every base must be > 0, since the lattice
    counts take ln a_i.

    Lattice points are retained while their weight exceeds a cutoff that
    starts at REL_TOL/10 and is tightened until the omitted log-mass bound

        |z| * (omitted weight) / (1 - |z| cutoff)

    drops below REL_TOL (each omitted factor satisfies
    |ln(1 - z w)| <= |z| w / (1 - |z| cutoff) since w <= cutoff).  A pass
    knows its omitted weight before it expands the last direction, so one
    whose bound fails only plans the next cutoff, and the lattice is summed
    once, at the certified cutoff (see _direct_pass).  Accumulation happens
    on ln(1 - z w) so tiny products cannot underflow prematurely.  z = +-1
    is legal here: at z = 1 the n = 0 factor is exactly zero, and the
    product returns 0.0 before any lattice work; no other factor can be
    zero.  A product beyond the double range raises Overflow.

    The certificate covers truncation only, not the rounding of the sum of
    up to DIRECT_MAX_TERMS logarithms.  Summed pairwise, that rounding stays below
    REL_TOL: (0.5; 0.8, 0.8, 0.8), about a million factors, misses 30-digit
    mpmath by 8e-13 in ln, where a sequential sum missed by 5e-11.
    """
    _check_product(z, bases)
    if not min(bases) > 0.0:
        raise InvalidSpec(f"the direct product needs every base > 0, got {bases!r}")
    if z == 0.0:
        return 1.0
    if z == 1.0:
        return 0.0
    rel_tol = REL_TOL
    n_dim = len(bases)

    # suffix_mass[i] = total weight of the sub-lattice over directions j >= i
    suffix_mass = [1.0] * (n_dim + 1)
    for i in range(n_dim - 1, -1, -1):
        suffix_mass[i] = suffix_mass[i + 1] / (1.0 - bases[i])

    cutoff = rel_tol / 10.0
    for _attempt in range(6):
        log_acc, omitted, _count = _direct_pass(
            z, bases, suffix_mass, cutoff, DIRECT_MAX_TERMS)
        if log_acc is not None:
            return _exp(log_acc, f"({z}; {bases})_inf")
        est = _omitted_log_bound(z, omitted, cutoff)
        cutoff *= max(min(rel_tol / (2.0 * est), 0.5), 1e-6)
    raise NonConvergent(
        f"direct product ({z}; {bases})_inf could not certify rel_tol={rel_tol}")


def verify_qcalc_identities(x: float, z: float, b: int,
                            c: int) -> tuple[float, float]:
    """Residuals of the two base-splitting product identities.

    r1:  (z; x^{2b}, x^c) (z x^b; x^{2b}, x^c)  =  (z; x^b, x^c)
         (splitting the first geometric direction into even/odd multiples)
    r2:  (z; x^b, x^c) (-z; x^b, x^c)           =  (z^2; x^{2b}, x^{2c})
         (pairing factors of opposite sign)

    Each of the five distinct products is evaluated once with the direct
    and once with the log-series strategy; each residual is
    |LHS - RHS| / |RHS|, the worse of the two strategies.  A grid of
    points shares its products through _qcalc_residuals, with the same
    results.
    """
    return _qcalc_residuals([(x, z, b, c)])[0]


def _qcalc_products(x, z, b, c):
    """The products (z', bases) of verify_qcalc_identities at one point,
    in the order even, odd, whole, negated, squared; () where z = 0."""
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
        return ()
    xb, xc = x ** b, x ** c
    x2b, x2c = x ** (2 * b), x ** (2 * c)
    return ((z, (x2b, xc)), (z * xb, (x2b, xc)), (z, (xb, xc)),
            (-z, (xb, xc)), (z * z, (x2b, x2c)))


def _qcalc_residuals(points):
    """verify_qcalc_identities at each (x, z, b, c) of points, every
    distinct product of them all evaluated once per strategy: at one
    (x, b, c) the pair +-z shares (z; x^b, x^c), (-z; x^b, x^c) and
    (z^2; x^{2b}, x^{2c}).  Nothing is kept past the call.
    """
    grid = [_qcalc_products(*point) for point in points]
    distinct = dict.fromkeys(spec for products in grid for spec in products)
    direct = {spec: qproduct_direct(*spec) for spec in distinct}
    series = {spec: _exp(log_multibase_product(*spec),
                         f"({spec[0]}; {spec[1]})_inf")
              for spec in distinct}

    def residuals(values, products):
        even, odd, whole, negated, squared = (values[spec] for spec in products)
        return (abs((even * odd - whole) / whole),
                abs((whole * negated - squared) / squared))

    out = []
    for products in grid:
        if not products:
            out.append((0.0, 0.0))
            continue
        d1, d2 = residuals(direct, products)
        s1, s2 = residuals(series, products)
        out.append((max(d1, s1), max(d2, s2)))
    return out


def minus_one_peel_residual(a: float) -> float:
    """Residual of peeling the n_1 = 0 slice off the z = -1 two-base product:

        (-a; a, a)_inf = (-1; a, a)_inf / (2 (-a; a)_inf).

    The left side uses the log series, the right side the direct product
    (the only strategy defined at z = -1), so the check is two-strategy.
    """
    lhs = _exp(log_multibase_product(-a, (a, a)), f"(-a; a, a) at a={a}")
    minus_one = qproduct_direct(-1.0, (a, a))
    single = _exp(log_multibase_product(-a, (a,)), f"(-a; a) at a={a}")
    rhs = minus_one / (2.0 * single)
    return abs((lhs - rhs) / rhs)
