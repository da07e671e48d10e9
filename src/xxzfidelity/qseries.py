"""Multi-base q-Pochhammer infinite products.

The central object is

    (z; a_1, ..., a_N)_inf = prod_{n_1,...,n_N >= 0} (1 - z a_1^{n_1} ... a_N^{n_N})

with every base a_i in (0, 1).  Two independent evaluation strategies are
provided:

* ``qproduct_direct`` multiplies the lattice factors themselves, truncating
  the multi-index lattice by total weight w = a_1^{n_1}...a_N^{n_N};
* ``qproduct_log`` sums the logarithmic series

      ln (z; a_1,...,a_N)_inf = -sum_{m>=1} z^m / (m prod_i (1 - a_i^m)),

  valid for |z| < 1 (expand ln(1 - z w) per factor and sum the geometric
  series over each index).

Their agreement is the workhorse cross-check for every identity used
downstream.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidSpec, NonConvergent, Overflow

#: default relative-error target of every truncated evaluation
DEFAULT_REL_TOL = 1e-12
#: default term caps (retained lattice factors / series terms)
DIRECT_MAX_TERMS = 10_000_000
SERIES_MAX_TERMS = 1_000_000

_MIN_REL_TOL = 10.0 * sys.float_info.epsilon
#: largest ln v for which v is a finite double
_LN_HUGE = math.log(sys.float_info.max)


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
                f"epsilon up to 1), got {self.rel_tol!r}")
        if self.max_terms is not None and not (
                isinstance(self.max_terms, numbers.Integral) and self.max_terms >= 1):
            raise InvalidSpec(
                f"max_terms must be an integer >= 1, got {self.max_terms!r}")

    def cap(self, default: int) -> int:
        return default if self.max_terms is None else self.max_terms


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class QProductSpec:
    """Argument z plus the ordered base list of one multi-base product.

    Every base must lie strictly inside (0, 1), which makes the product
    converge absolutely.  |z| <= 1 is accepted here; the log-series strategy
    additionally requires |z| < 1 strictly, while z = +-1 is meaningful for
    the direct strategy (e.g. the (-1; a, a)_inf factor, whose leading
    factor is simply 2).
    """

    z: float
    bases: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "z", float(self.z))
        object.__setattr__(self, "bases", tuple(float(b) for b in self.bases))
        if len(self.bases) == 0:
            raise InvalidSpec("bases must be nonempty")
        for b in self.bases:
            if not (0.0 < b < 1.0):
                raise InvalidSpec(f"every base must lie in (0,1), got {b!r}")
        if not (abs(self.z) <= 1.0):
            raise InvalidSpec(f"|z| <= 1 required, got z={self.z!r}")


def log_multibase_product(z: float, bases: Sequence[float],
                          tol: Tolerance = DEFAULT_TOL) -> float:
    """ln (z; a_1,...,a_N)_inf via the logarithmic series; requires |z| < 1.

    Bases equal to 0.0 are tolerated here (a zero base contributes a single
    lattice slice, and its geometric sums collapse to 1), which lets callers
    pass dual-nome powers that underflowed to zero; the public
    ``QProductSpec`` remains strict about (0, 1).

    Stopping rule: the geometric tail bound |term_m| * |z| / (1 - |z|)
    (valid because successive terms shrink at least by |z|) must drop below
    rel_tol times the accumulated sum.  The sum's scale is set by its first
    term and never cancels away, so the relative test needs no absolute
    floor beyond the z = 0 short-circuit.  A sum past the float range raises
    Overflow (bases so close to 1 that the denominators underflow).
    """
    if not (abs(z) < 1.0):
        raise InvalidSpec(f"log series requires |z| < 1, got z={z!r}")
    for b in bases:
        if not (0.0 <= b < 1.0):
            raise InvalidSpec(f"bases must lie in [0,1), got {b!r}")
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


def qproduct_log(spec: QProductSpec, tol: Tolerance = DEFAULT_TOL) -> float:
    """ln of the product for a validated spec (log-series strategy)."""
    return log_multibase_product(spec.z, spec.bases, tol)


def _exp(ln_value: float, what) -> float:
    """e^ln_value, raising Overflow where it leaves the double range."""
    if ln_value > _LN_HUGE:
        raise Overflow(f"{what} = exp({ln_value:.6g}) exceeds the float range")
    return math.exp(ln_value)


def _direct_pass(z, bases, suffix_mass, cutoff, max_terms):
    """One truncated sweep of the factor lattice at a fixed weight cutoff.

    Returns (log_acc, omitted_mass, zero_factor, count) where omitted_mass
    is the exact total weight of all pruned lattice points: whenever the
    running weight w drops to <= cutoff in direction i, the whole subtree
    below it carries weight w/(1-a_i) * prod_{j>i} 1/(1-a_j).
    """
    log_acc = 0.0
    omitted = 0.0
    count = 0
    zero_factor = False
    last = len(bases) - 1

    def rec(i, w):
        nonlocal log_acc, omitted, count, zero_factor
        b = bases[i]
        wi = w
        if i == last:
            while wi > cutoff:
                count += 1
                if count > max_terms:
                    raise NonConvergent(
                        f"direct product exceeded max_terms={max_terms} "
                        f"at cutoff={cutoff:.3e}")
                zw = z * wi
                if zw == 1.0:
                    zero_factor = True
                else:
                    log_acc = log_acc + math.log1p(-zw)
                wi *= b
        else:
            while wi > cutoff:
                rec(i + 1, wi)
                wi *= b
        omitted += wi / (1.0 - b) * suffix_mass[i + 1]

    rec(0, 1.0)
    return log_acc, omitted, zero_factor, count


def qproduct_direct(spec: QProductSpec, tol: Tolerance = DEFAULT_TOL) -> float:
    """(z; a_1,...,a_N)_inf by direct factor multiplication.

    Lattice points are retained while their weight exceeds a cutoff that
    starts at rel_tol/10 and is tightened until the omitted log-mass bound

        |z| * (omitted weight) / (1 - |z| cutoff)

    drops below rel_tol (each omitted factor satisfies
    |ln(1 - z w)| <= |z| w / (1 - |z| cutoff) since w <= cutoff).
    Accumulation happens on ln(1 - z w) so tiny products cannot underflow
    prematurely.  z = +-1 is legal here: a factor that is exactly zero
    short-circuits the whole product to 0.  A product beyond the double
    range raises Overflow.
    """
    z = spec.z
    if z == 0.0:
        return 1.0
    rel_tol = tol.rel_tol
    max_terms = tol.cap(DIRECT_MAX_TERMS)
    bases = spec.bases
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
            return _exp(log_acc, spec)
        cutoff *= max(min(rel_tol / (2.0 * est), 0.5), 1e-6)
    raise NonConvergent(
        f"direct product for {spec} could not certify rel_tol={rel_tol}")


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
        raise InvalidSpec(f"x must lie in (0,1), got {x!r}")
    # range first: it rejects nan and inf, and keeps huge ints from repr()
    if not all(1 <= v <= sys.float_info.max for v in (b, c)):
        raise InvalidSpec("b, c must lie in [1, sys.float_info.max]")
    if not all(int(v) == v for v in (b, c)):
        raise InvalidSpec(f"b, c must be positive integers, got {b!r}, {c!r}")
    if not (abs(z) < 1.0):
        raise InvalidSpec(f"identity check requires |z| < 1, got {z!r}")
    if z == 0.0:
        return (0.0, 0.0)

    xb, xc = x ** b, x ** c
    x2b, x2c = x ** (2 * b), x ** (2 * c)
    specs = [QProductSpec(zz, bases) for zz, bases in (
        (z, (x2b, xc)), (z * xb, (x2b, xc)), (z, (xb, xc)), (-z, (xb, xc)),
        (z * z, (x2b, x2c)))]

    def residuals(even, odd, whole, negated, squared):
        return (abs((even * odd - whole) / whole),
                abs((whole * negated - squared) / squared))

    d1, d2 = residuals(*[qproduct_direct(s, tol) for s in specs])
    s1, s2 = residuals(*[_exp(qproduct_log(s, tol), s) for s in specs])
    return (max(d1, s1), max(d2, s2))


def minus_one_peel_residual(a: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Residual of peeling the n_1 = 0 slice off the z = -1 two-base product:

        (-a; a, a)_inf = (-1; a, a)_inf / (2 (-a; a)_inf).

    The left side uses the log series, the right side the direct product
    (the only strategy defined at z = -1), so the check is two-strategy.
    """
    lhs = _exp(qproduct_log(QProductSpec(-a, (a, a)), tol), f"(-a; a, a) at a={a}")
    minus_one = qproduct_direct(QProductSpec(-1.0, (a, a)), tol)
    single = _exp(qproduct_log(QProductSpec(-a, (a,)), tol), f"(-a; a) at a={a}")
    rhs = minus_one / (2.0 * single)
    return abs((lhs - rhs) / rhs)
