"""Bipartite fidelity of the infinite antiferromagnetic XXZ chain.

Three independent routes compute the same f(x), and their agreement is the
package's central numerical certificate:

* raw route — the unsimplified product
      f = (x^2;x^4) (x^6;x^8,x^8)^2 (x^10;x^8,x^8)^2 (x^2;x^4,x^8)^2
          / [(x^4;x^8,x^8)^2 (x^12;x^8,x^8)^2 (x^4;x^4,x^8)^2];
* simplified route — after the base-splitting identities collapse it to
      f = (x^2;x^4) (-x^4;x^4,x^4)^2 / (-x^2;x^4,x^4)^2;
* modular route — after pulling the divergence into dual-nome factors,
      f = x^{1/4} x~^{1/16} (-x~;x~)_inf / (x~^{1/2};x~)_inf * g,
  with x~ = e^{-pi^2/eps} and the residual factor g obeying

      ln g = sum_{N>=1} (-1)^{N+1} / (N (1 + x^{2N})^2),

  which stays convergent as x -> 1 where ln g -> (ln 2)/4; ln_g_series
  sums it at a cost independent of eps.

Everything is assembled in log space and exponentiated once at the end:
x~^{1/16} alone underflows for eps < 0.03, and f itself leaves the double
range for eps < ~8e-4 (ln_f stays exact there and is the field downstream
asymptotics consume).
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, replace

from .elliptic import ModelPoint, modulus_k, modulus_kprime
from .errors import InvalidSpec, NonConvergent
from .qseries import (DEFAULT_TOL, SERIES_MAX_TERMS, _HUGE, Tolerance, _brief,
                      log_multibase_product, minus_one_peel_residual,
                      verify_qcalc_identities)

#: nome above which the path selector switches from Simplified to Modular
PATH_SWITCH_X = 0.7
#: window where fidelity() cross-checks the two applicable routes
CROSS_CHECK_WINDOW = (0.6, 0.9)
#: ln g from its expansion up to here (order 30 reaches 0.152 at rel_tol 1e-12)
LN_G_SWITCH_EPS = 0.15
#: the self-dual nome x = e^{-pi} (eps = pi), fixed point of x -> x~
_SELF_DUAL_X = math.exp(-math.pi)

_QUARTER_LN2 = 0.25 * math.log(2.0)
# c_2, c_4, ..., c_30 and B_1, ..., B_15 (rounded up) of _ln_g_expansion
_LN_G_EVEN = (0.0625, 0.020833333333333332, 0.02361111111111111,
              0.05228174603174603, 0.18889770723104057, 1.0083776922665812,
              7.453417113456796, 72.84383367413989, 909.3411998263687,
              14114.944262769695, 266622.9318069865, 6021721.8303798335,
              160234561.46245712, 4961214936.313177, 176835016896.58295)
_LN_G_REMAINDER = (0.041, 0.034, 0.060, 0.19, 0.90, 6.1, 55.0, 640.0, 9.4e3,
                   1.7e5, 3.7e6, 9.4e7, 2.8e9, 9.6e10, 3.8e12)


class Path(enum.Enum):
    """Which product representation produced a FidelityResult."""

    RAW = "raw"
    SIMPLIFIED = "simplified"
    MODULAR = "modular"


@dataclass(frozen=True)
class FidelityResult:
    """Log-value of f, the route used, and an error estimate.

    est_rel_error accumulates the loosest relative tolerance over every
    constituent product (scaled by the magnitude of its log contribution),
    so it is a bound-flavored estimate of the relative error of f.  The
    property f = e^{ln_f} underflows to 0.0 for ln_f < -745; ln_f is the
    authoritative field.
    """

    ln_f: float
    path: Path
    est_rel_error: float

    @property
    def f(self) -> float:
        return math.exp(self.ln_f)


def _combine(parts, rel_tol):
    """Sum coef*log-term contributions; returns (ln_f, est_rel_error)."""
    ln_f = 0.0
    magnitude = 0.0
    for coef, term in parts:
        ln_f = ln_f + coef * term
        magnitude += abs(coef) * abs(term)
    est = magnitude * (rel_tol + sys.float_info.epsilon) + sys.float_info.epsilon
    return ln_f, est


def _result(ln_f, est, path):
    return FidelityResult(ln_f=float(ln_f), path=path, est_rel_error=float(est))


def fidelity_raw(p: ModelPoint, tol: Tolerance = DEFAULT_TOL) -> FidelityResult:
    """f by the unsimplified seven-product form (direct-evaluation regime).

    Intended for x <= 0.9; closer to 1 the constituent series need ever
    more terms and eventually raise NonConvergent against the term cap.
    """
    x = p.x
    x2 = x * x
    x4 = x2 * x2
    x6 = x4 * x2
    x8 = x4 * x4
    x10 = x8 * x2
    x12 = x8 * x4

    def L(z, bases):
        return log_multibase_product(z, bases, tol)

    parts = [
        (1.0, L(x2, (x4,))),
        (2.0, L(x6, (x8, x8))),
        (2.0, L(x10, (x8, x8))),
        (-2.0, L(x4, (x8, x8))),
        (-2.0, L(x12, (x8, x8))),
        (2.0, L(x2, (x4, x8))),
        (-2.0, L(x4, (x4, x8))),
    ]
    ln_f, est = _combine(parts, tol.rel_tol)
    return _result(ln_f, est, Path.RAW)


def fidelity_simplified(p: ModelPoint, tol: Tolerance = DEFAULT_TOL) -> FidelityResult:
    """f = (x^2;x^4) (-x^4;x^4,x^4)^2 / (-x^2;x^4,x^4)^2."""
    x = p.x
    x2 = x * x
    x4 = x2 * x2

    def L(z, bases):
        return log_multibase_product(z, bases, tol)

    parts = [
        (1.0, L(x2, (x4,))),
        (2.0, L(-x4, (x4, x4))),
        (-2.0, L(-x2, (x4, x4))),
    ]
    ln_f, est = _combine(parts, tol.rel_tol)
    return _result(ln_f, est, Path.SIMPLIFIED)


def _ln_g_expansion(eps: float, rel_tol: float):
    """ln g = sum_k c_k eps^k to the first order whose error bound is below
    rel_tol (ln 2)/4 <= rel_tol ln g; None if no order up to 30 is.

    Mellin asymptotics of harmonic sums (Flajolet, Gourdon & Dumas, TCS 144,
    1995): with t = 2 eps, ln g - ln 2 = sum_N (-1)^{N+1}/N [h(N t) - 1],
    h = (1 + e^{-t})^{-2}, has Mellin transform M(s) = -Gamma(s) eta(1+s)
    (eta(s-1) + eta(s)).  Its poles at s = -k give c_k = w_k eta(1-k) 2^k
    (w_k: Taylor coefficients of h), so c_0 = (ln 2)/4, c_1 = 1/4 and c_k = 0
    for odd k >= 3.  The expansion diverges (c_k ~ k! (2/pi^2)^k), but M is
    regular on Re s = -(2j+1), and moving the inversion contour there bounds
    the error after the eps^{2j} term by B_j eps^{2j+1},
    B_j = 2^{2j+1}/(2 pi) int |M(-(2j+1) + iy)| dy.  Rounding the literals
    past the exact c_2 moves ln g by < 2e-21 at eps <= 0.15; all c_{2j} > 0,
    so Horner's rule cannot cancel.
    """
    budget = rel_tol * _QUARTER_LN2
    for order, bound in enumerate(_LN_G_REMAINDER, start=1):
        if bound * eps ** (2 * order + 1) <= budget:
            break
    else:
        return None
    e2 = eps * eps
    acc = 0.0
    for c in reversed(_LN_G_EVEN[:order]):
        acc = (acc + c) * e2
    return _QUARTER_LN2 + 0.25 * eps + acc


def _ln_g_sum(eps: float, rel_tol: float, max_terms: int):
    """Accelerated series ln g = ln 2 - sum (-1)^{N+1} u_N / N with
    u_N = 1 - (1+q^N)^{-2} = q^N (2 + q^N) / (1 + q^N)^2 and q = x^2.

    u_N/N decreases strictly, so the alternating tail is bounded by the next
    term, and subtracting the x -> 0 limit ln 2 keeps the term count at
    ~|ln rel_tol| / (2 eps).  As a stability guard the sum runs on to twice
    the stopping index and must agree with itself.
    """
    ln2 = math.log(2.0)
    q = math.exp(-2.0 * eps)
    qa = 1.0
    acc = 0.0
    sign = 1.0
    stop_n = None
    for n in range(1, max_terms + 1):
        qa = qa * q
        t = qa * (2.0 + qa) / ((1.0 + qa) * (1.0 + qa) * n)
        acc = acc + sign * t
        sign = -sign
        ln_g = ln2 - acc
        if stop_n is None:
            if t <= rel_tol * abs(ln_g):
                stop_n = n
                ln_g_first = ln_g
        elif n >= 2 * stop_n:
            if abs(ln_g - ln_g_first) > 8.0 * rel_tol * abs(ln_g):
                raise NonConvergent(
                    f"ln g unstable under term doubling at eps={eps}")
            return ln_g
    raise NonConvergent(
        f"ln g series needed more than {max_terms} terms at eps={eps}")


def ln_g_series(p: ModelPoint, tol: Tolerance = DEFAULT_TOL) -> float:
    """ln g of the modular route's factor g, by the log series stable as x -> 1.

    ln g runs from ln 2 (x -> 0) down to (ln 2)/4 (x -> 1), the approach to
    the limit being O(eps).  For eps <= LN_G_SWITCH_EPS it comes from the
    small-eps expansion, else (or if that cannot meet tol.rel_tol) from the
    accelerated series, whose term count tol.max_terms caps; neither costs
    more as eps -> 0.
    """
    ln_g = (_ln_g_expansion(p.eps, tol.rel_tol)
            if p.eps <= LN_G_SWITCH_EPS else None)
    if ln_g is None:
        ln_g = _ln_g_sum(p.eps, tol.rel_tol, tol.cap(SERIES_MAX_TERMS))
    return float(ln_g)


def g_product(p: ModelPoint, tol: Tolerance = DEFAULT_TOL) -> float:
    """ln g by its product form (-1;x^4,x^4)(-x^4;x^4,x^4)/(-x^2;x^4,x^4)^2.

    The |z| = 1 factor is rewritten through the peel identity
    (-1; a, a) = 2 (-a; a) (-a; a, a) so everything runs on the log series.
    """
    x = p.x
    x2 = x * x
    x4 = x2 * x2

    def L(z, bases):
        return log_multibase_product(z, bases, tol)

    return float(math.log(2.0) + L(-x4, (x4,))
                 + 2.0 * L(-x4, (x4, x4)) - 2.0 * L(-x2, (x4, x4)))


def fidelity_modular(p: ModelPoint, tol: Tolerance = DEFAULT_TOL) -> FidelityResult:
    """f = x^{1/4} x~^{1/16} (-x~;x~)/(x~^{1/2};x~) * g, in log space.

    The dual nome x~ = e^{-pi^2/eps} makes this the fast route near x -> 1
    (for eps < 0.013, x~ underflows as a double and the product logs are
    simply 0 to working precision — the assembly keeps using ln x~ =
    -pi^2/eps exactly).  It remains valid down to small x, where x~ -> 1
    merely makes it slow; prefer the simplified route below x ~ 0.3.
    """
    ln_xt = p.ln_x_dual
    xt = math.exp(ln_xt)
    xt_half = math.exp(0.5 * ln_xt)
    ln_g = ln_g_series(p, tol)

    def L(z, bases):
        return log_multibase_product(z, bases, tol)

    parts = [
        (0.25, -p.eps),
        (0.0625, ln_xt),
        (1.0, L(-xt, (xt,))),
        (-1.0, L(xt_half, (xt,))),
        (1.0, ln_g),
    ]
    ln_f, est = _combine(parts, tol.rel_tol)
    return _result(ln_f, est, Path.MODULAR)


def short_theta_identity_residual(b: float, p: ModelPoint,
                                  tol: Tolerance = DEFAULT_TOL) -> float:
    """Relative residual of the single-product modular identity

        x^{-b/48} (x^{b/2}; x^b)_inf = sqrt(2) x~^{1/(6b)} (-x~^{4/b}; x~^{4/b})_inf

    for real b > 0, computed fully in log space on both sides.
    """
    # compared before any arithmetic, so an integer of any size is refused
    if not (0.0 < b <= _HUGE):
        raise InvalidSpec(f"b must be positive and finite, got {_brief(b)}")
    eps = p.eps
    xb = math.exp(-b * eps)
    xb_half = math.exp(-0.5 * b * eps)
    if not xb < 1.0:
        raise InvalidSpec(f"x^b rounds to 1 for b={b!r}, eps={eps!r}")
    xt4b = math.exp(4.0 / b * p.ln_x_dual)

    lhs = b / 48.0 * eps + log_multibase_product(xb_half, (xb,), tol)
    rhs = (0.5 * math.log(2.0) + p.ln_x_dual / (6.0 * b)
           + log_multibase_product(-xt4b, (xt4b,), tol))
    return abs(math.expm1(lhs - rhs))


def g_decomposition_residual(p: ModelPoint, tol: Tolerance = DEFAULT_TOL) -> float:
    """Relative residual of the split f = (x^2;x^4) / (2 (-x^4;x^4)) * g.

    The right-hand side takes g from ln_g_series, so the check ties the
    product representation of f to the independently summed log series.
    """
    x = p.x
    x2 = x * x
    x4 = x2 * x2
    ln_g = ln_g_series(p, tol)
    ln_rhs = (log_multibase_product(x2, (x4,), tol) - math.log(2.0)
              - log_multibase_product(-x4, (x4,), tol) + ln_g)
    ln_lhs = fidelity_simplified(p, tol).ln_f
    return abs(math.expm1(ln_lhs - ln_rhs))


def fidelity(p: ModelPoint, tol: Tolerance = DEFAULT_TOL) -> FidelityResult:
    """Route selector: Simplified for x <= 0.7, Modular above.

    Inside the overlap window [0.6, 0.9] the other route is evaluated too
    and the observed discrepancy is folded into est_rel_error, so a silent
    divergence of the two representations cannot pass unnoticed.
    """
    use_modular = p.x > PATH_SWITCH_X
    primary = (fidelity_modular if use_modular else fidelity_simplified)(p, tol)
    lo, hi = CROSS_CHECK_WINDOW
    if lo <= p.x <= hi:
        other = (fidelity_simplified if use_modular else fidelity_modular)(p, tol)
        discrepancy = abs(math.expm1(primary.ln_f - other.ln_f))
        return replace(primary,
                       est_rel_error=max(primary.est_rel_error, discrepancy))
    return primary


def identity_report(tol: Tolerance = DEFAULT_TOL) -> list[tuple[str, float]]:
    """(check, max_residual) of each of the nine identity suites, in order.

    Every suite runs on its own fixed grid: the base-splitting (qcalc_r1)
    and sign-pairing (qcalc_r2) product identities, the minus-one peel, the
    short-theta modular identity (including the self-dual point), the
    spread of the three fidelity routes, k^2 + k'^2 = 1, the nome duality
    k'(x) = k(x~), ln g by series against product, and the g split of f.
    """
    x_grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    qcalc = [verify_qcalc_identities(x, z, b, c, tol)
             for x in (0.1, 0.5, 0.9) for z in (0.6, -0.6)
             for b, c in ((1, 2), (2, 3))]

    def route_spread(x):
        p = ModelPoint.from_x(x)
        lns = [route(p, tol).ln_f for route in
               (fidelity_raw, fidelity_simplified, fidelity_modular)]
        return abs(math.expm1(max(lns) - min(lns)))

    def duality(x):
        kp = modulus_kprime(x, tol)
        return abs(modulus_k(ModelPoint.from_x(x).x_dual, tol) - kp) / kp

    def g_routes(p):
        return abs(math.expm1(ln_g_series(p, tol) - g_product(p, tol)))

    g_points = [ModelPoint.from_x(x) for x in x_grid]
    return [
        ("qcalc_r1", max(r1 for r1, _ in qcalc)),
        ("qcalc_r2", max(r2 for _, r2 in qcalc)),
        ("minus_one_peel", max(minus_one_peel_residual(x ** 4, tol)
                               for x in x_grid)),
        ("short_theta", max(
            short_theta_identity_residual(b, ModelPoint.from_x(x), tol)
            for b, x in ((4.0, 0.5), (2.0, 0.7), (4.0, _SELF_DUAL_X),
                         (1.0, 0.4), (8.0, 0.6)))),
        ("three_path_fidelity", max(route_spread(x)
                                    for x in (0.3, 0.45, 0.6, 0.75, 0.9))),
        ("moduli_complementary", max(
            abs(modulus_k(z, tol) ** 2 + modulus_kprime(z, tol) ** 2 - 1.0)
            for z in (0.05, 0.25, 0.5, 0.7, 0.9))),
        ("moduli_duality", max(duality(x) for x in (0.3, 0.5, 0.7, 0.85, 0.95))),
        ("g_series_vs_product", max(g_routes(p) for p in g_points)),
        ("g_decomposition", max(g_decomposition_residual(p, tol)
                                for p in g_points)),
    ]
