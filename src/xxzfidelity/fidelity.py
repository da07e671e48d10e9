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
  takes it from an order-30 expansion up to eps = LN_G_SWITCH_EPS and from
  26 fixed Cohen-Rodriguez Villegas-Zagier weights above, with no stopping
  rule on either side.

Everything is assembled in log space and exponentiated once at the end:
x~^{1/16} alone underflows for eps < 0.03, and f itself leaves the double
range for eps < ~8e-4 (ln_f stays exact there and is the field downstream
asymptotics consume).
"""
from __future__ import annotations

import enum
import itertools
import math
import sys
from dataclasses import dataclass

from . import qseries
from .elliptic import ModelPoint, modulus_k, modulus_kprime
from .errors import _HUGE, _brief, InvalidSpec
from .qseries import log_multibase_product, minus_one_peel_residual

#: nome above which the path selector switches from Simplified to Modular
PATH_SWITCH_X = 0.7
#: window where fidelity() cross-checks the two applicable routes
CROSS_CHECK_WINDOW = (0.6, 0.9)
#: ln g from its order-30 expansion up to here, where its bound B_15 eps^31
#: is at most 10 eps_mach (ln 2)/4, far below qseries.REL_TOL; the CVZ sum
#: of _ln_g_sum above, whose length this sets
LN_G_SWITCH_EPS = 0.125
#: the self-dual nome x = e^{-pi} (eps = pi), fixed point of x -> x~
_SELF_DUAL_X = math.exp(-math.pi)

_LN2 = math.log(2.0)
_QUARTER_LN2 = 0.25 * _LN2
_EPS_MACH = sys.float_info.epsilon
# c_2, c_4, ..., c_30 and B_15 (rounded up) of _ln_g_expansion
_LN_G_EVEN = (0.0625, 0.020833333333333332, 0.02361111111111111,
              0.05228174603174603, 0.18889770723104057, 1.0083776922665812,
              7.453417113456796, 72.84383367413989, 909.3411998263687,
              14114.944262769695, 266622.9318069865, 6021721.8303798335,
              160234561.46245712, 4961214936.313177, 176835016896.58295)
_LN_G_REMAINDER = 3.8e12
_LN_G_HORNER = _LN_G_EVEN[::-1]  # c_30 first, as Horner's rule takes them


class Path(enum.Enum):
    """Which product representation produced a FidelityResult."""

    RAW = "raw"
    SIMPLIFIED = "simplified"
    MODULAR = "modular"


@dataclass(frozen=True)
class FidelityResult:
    """Log-value of f, the route used, and an error estimate.

    est_rel_error charges qseries.REL_TOL, as read when the route ran, plus
    one machine epsilon on the magnitude of every log term the route sums
    (each product, and on the modular route also -eps/4, ln x~/16 and
    ln g), so it is a bound-flavored estimate of the relative error of f.
    The property f = e^{ln_f} underflows to 0.0 for ln_f < -745; ln_f is
    the authoritative field.
    """

    ln_f: float
    path: Path
    est_rel_error: float

    @property
    def f(self) -> float:
        return math.exp(self.ln_f)


def _combine(parts, path) -> FidelityResult:
    """Sum coef*log-term contributions into the FidelityResult of a route;
    est_rel_error is the estimate at the target qseries.REL_TOL the series
    met, read at call time; machine epsilon is a module constant."""
    ln_f = 0.0
    magnitude = 0.0
    for coef, term in parts:
        ln_f = ln_f + coef * term
        magnitude += abs(coef) * abs(term)
    est = magnitude * (qseries.REL_TOL + _EPS_MACH) + _EPS_MACH
    return FidelityResult(float(ln_f), path, float(est))


def fidelity_raw(p: ModelPoint) -> FidelityResult:
    """f by the unsimplified seven-product form (direct-evaluation regime).

    Intended for x <= 0.9; closer to 1 the constituent series need ever
    more terms, and below eps ~ 2.15e-6 (x ~ 0.9999979) they raise
    NonConvergent against SERIES_MAX_TERMS.  fidelity() never calls it.
    """
    x = p.x
    x2 = x * x
    x4 = x2 * x2
    x6 = x4 * x2
    x8 = x4 * x4
    x10 = x8 * x2
    x12 = x8 * x4
    parts = [
        (1.0, log_multibase_product(x2, (x4,))),
        (2.0, log_multibase_product(x6, (x8, x8))),
        (2.0, log_multibase_product(x10, (x8, x8))),
        (-2.0, log_multibase_product(x4, (x8, x8))),
        (-2.0, log_multibase_product(x12, (x8, x8))),
        (2.0, log_multibase_product(x2, (x4, x8))),
        (-2.0, log_multibase_product(x4, (x4, x8))),
    ]
    return _combine(parts, Path.RAW)


def fidelity_simplified(p: ModelPoint) -> FidelityResult:
    """f = (x^2;x^4) (-x^4;x^4,x^4)^2 / (-x^2;x^4,x^4)^2.

    Its log series need more than SERIES_MAX_TERMS terms below eps ~ 2.15e-6
    (x ~ 0.9999979), where it raises NonConvergent; fidelity() sends only
    x <= 0.9 here.
    """
    x = p.x
    x2 = x * x
    x4 = x2 * x2
    parts = [
        (1.0, log_multibase_product(x2, (x4,))),
        (2.0, log_multibase_product(-x4, (x4, x4))),
        (-2.0, log_multibase_product(-x2, (x4, x4))),
    ]
    return _combine(parts, Path.SIMPLIFIED)


def _ln_g_expansion(eps: float) -> float:
    """ln g = (ln 2)/4 + eps/4 + sum_{j=1}^{15} c_{2j} eps^{2j}, by Horner's rule.

    Mellin asymptotics of harmonic sums (Flajolet, Gourdon & Dumas, TCS 144,
    1995): with t = 2 eps, ln g - ln 2 = sum_N (-1)^{N+1}/N [h(N t) - 1],
    h = (1 + e^{-t})^{-2}, has Mellin transform M(s) = -Gamma(s) eta(1+s)
    (eta(s-1) + eta(s)).  Its poles at s = -k give c_k = w_k eta(1-k) 2^k
    (w_k: Taylor coefficients of h), so c_0 = (ln 2)/4, c_1 = 1/4 and c_k = 0
    for odd k >= 3.  The expansion diverges (c_k ~ k! (2/pi^2)^k), but M is
    regular on Re s = -(2j+1), and moving the inversion contour there bounds
    the error after the eps^{2j} term by B_j eps^{2j+1},
    B_j = 2^{2j+1}/(2 pi) int |M(-(2j+1) + iy)| dy.  Up to LN_G_SWITCH_EPS
    each further order shrinks that bound (B_{j+1}/B_j eps^2 <= 0.62), so the
    full order 30 is the best truncation, with B_15 eps^31 <= 10 eps_mach
    (ln 2)/4.  Rounding the literals past the exact c_2 moves ln g by
    < 2e-21 there; all c_{2j} > 0, so Horner's rule cannot cancel.
    """
    e2 = eps * eps
    acc = 0.0
    for c in _LN_G_HORNER:
        acc = (acc + c) * e2
    return _QUARTER_LN2 + 0.25 * eps + acc


def _cvz_weights(n: int) -> list:
    """The n weights w_k, sum_{k<n} w_k a_k ~ sum_{k>=0} (-1)^k a_k, of Cohen,
    Rodriguez Villegas & Zagier's Algorithm 1 (Experimental Math. 9 (2000)
    3), as exact integer pairs (c_k, d), w_k = c_k / d: c_k = (-1)^k
    sum_{j>k} m_j, m_j the sizes of the coefficients of T_n(1 - 2t), and
    d = sum_j m_j = T_n(3).
    They miss the sum by at most 2 TV / (3 + sqrt 8)^n if a_k are the
    moments of a signed measure on [0, 1] of total variation TV."""
    m = [1]
    for k in range(n):
        m.append(m[-1] * 2 * (n * n - k * k) // ((2 * k + 1) * (k + 1)))
    return [((-1) ** k * sum(m[k + 1:]), sum(m)) for k in range(n)]


#: w_k / (k + 1), each rounded once (int / int), for the least n whose bound
#: at LN_G_SWITCH_EPS (see _ln_g_sum) is at most 2^-60, a 32nd of an ulp of
#: ln g > (ln 2)/4: n = 26
_LN_G_WEIGHTS = tuple(c / (d * (k + 1)) for k, (c, d) in enumerate(
    _cvz_weights(next(
        n for n in itertools.count(1)
        if 2.0 * (1.0 / (1.0 - math.exp(-2.0 * LN_G_SWITCH_EPS)) ** 2 - 1.0)
        <= 2.0 ** -60 * (3.0 + math.sqrt(8.0)) ** n))))


def _ln_g_sum(eps: float) -> float:
    """ln g = ln 2 - sum_{N>=1} (-1)^{N+1} u_N / N, u_N = y (2 + y) / (1 + y)^2
    at y = q^N, q = x^2, summed with the fixed _LN_G_WEIGHTS.

    u_N / N = sum_{j>=1} (-1)^{j+1} (j + 1) int_0^{q^j} t^{N-1} dt are the
    moments of a signed measure of total variation at most 1/(1 - q)^2 - 1,
    so n weights miss the sum by at most 2 (1/(1 - q)^2 - 1) / (3 + sqrt 8)^n:
    4.8e-19 at LN_G_SWITCH_EPS, less above.  The bound is sharp: in 50-digit
    arithmetic (n = 4..20) the error reached 0.07 of it at eps = 0.3 and
    0.999 at eps = 5, where the measure sits at t ~ 0.  Rounding leaves at
    most 2.5 ulp of ln 2 against 40-digit mpmath over 600 eps.
    """
    q = math.exp(-2.0 * eps)
    y = 1.0
    acc = 0.0
    for w in _LN_G_WEIGHTS:
        y = y * q
        acc = acc + w * (y * (2.0 + y) / ((1.0 + y) * (1.0 + y)))
    return _LN2 - acc


def ln_g_series(p: ModelPoint) -> float:
    """ln g of the modular route's factor g, by the log series stable as x -> 1.

    ln g runs from ln 2 (x -> 0) down to (ln 2)/4 (x -> 1), the approach to
    the limit being O(eps).  For eps <= LN_G_SWITCH_EPS it comes from the
    small-eps expansion, else from the fixed 26-term CVZ sum of _ln_g_sum;
    each has a fixed cost, neither reads qseries.REL_TOL, and both are
    within ~1e-14 of ln g (the sum within 3 ulp of ln 2).  p is not checked
    again; LN_G_SWITCH_EPS is read at call time.
    """
    if p.eps <= LN_G_SWITCH_EPS:
        return float(_ln_g_expansion(p.eps))
    return float(_ln_g_sum(p.eps))


def g_product(p: ModelPoint) -> float:
    """ln g by its product form (-1;x^4,x^4)(-x^4;x^4,x^4)/(-x^2;x^4,x^4)^2.

    The |z| = 1 factor is rewritten through the peel identity
    (-1; a, a) = 2 (-a; a) (-a; a, a) so everything runs on the log series.
    """
    x = p.x
    x2 = x * x
    x4 = x2 * x2
    return float(_LN2 + log_multibase_product(-x4, (x4,))
                 + 2.0 * log_multibase_product(-x4, (x4, x4))
                 - 2.0 * log_multibase_product(-x2, (x4, x4)))


def fidelity_modular(p: ModelPoint) -> FidelityResult:
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
    ln_g = ln_g_series(p)
    parts = [
        (0.25, -p.eps),
        (0.0625, ln_xt),
        (1.0, log_multibase_product(-xt, (xt,))),
        (-1.0, log_multibase_product(xt_half, (xt,))),
        (1.0, ln_g),
    ]
    return _combine(parts, Path.MODULAR)


def short_theta_identity_residual(b: float, p: ModelPoint) -> float:
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
    xt4b = math.exp(4.0 / b * p.ln_x_dual)
    # the left series sums at z = x^{b/2} (so x^b < 1 too), the right one
    # in the base x~^{4/b}: both below 1, or b is out of reach at this eps
    if not xb_half < 1.0:
        raise InvalidSpec(f"x^(b/2) rounds to 1 for b={b!r}, eps={eps!r}")
    if not xt4b < 1.0:
        raise InvalidSpec(f"x~^(4/b) rounds to 1 for b={b!r}, eps={eps!r}")

    lhs = b / 48.0 * eps + log_multibase_product(xb_half, (xb,))
    rhs = (0.5 * _LN2 + p.ln_x_dual / (6.0 * b)
           + log_multibase_product(-xt4b, (xt4b,)))
    return abs(math.expm1(lhs - rhs))


def fidelity(p: ModelPoint) -> FidelityResult:
    """Route selector: Simplified for x <= 0.7, Modular above.

    Inside the overlap window [0.6, 0.9] the other route is evaluated too
    and the observed discrepancy is folded into est_rel_error, so a silent
    divergence of the two representations cannot pass unnoticed.
    """
    use_modular = p.x > PATH_SWITCH_X
    primary = (fidelity_modular if use_modular else fidelity_simplified)(p)
    lo, hi = CROSS_CHECK_WINDOW
    if lo <= p.x <= hi:
        other = (fidelity_simplified if use_modular else fidelity_modular)(p)
        discrepancy = abs(math.expm1(primary.ln_f - other.ln_f))
        return FidelityResult(primary.ln_f, primary.path,
                              max(primary.est_rel_error, discrepancy))
    return primary


def identity_report() -> list[tuple[str, float]]:
    """(check, max_residual) of each of the eight identity suites, in order.

    Every suite runs on its own fixed grid: the base-splitting (qcalc_r1)
    and sign-pairing (qcalc_r2) product identities, the minus-one peel, the
    short-theta modular identity (including the self-dual point), the
    spread of the three fidelity routes, k^2 + k'^2 = 1, the nome duality
    k'(x) = k(x~), and ln g by series against product.

    The two qcalc rows are the maxima of verify_qcalc_identities over their
    grid, whose 60 products per strategy hold 42 distinct ones: each is
    evaluated once per strategy within the call (qseries._qcalc_residuals).
    """
    x_grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    qcalc = qseries._qcalc_residuals(
        [(x, z, b, c) for x in (0.1, 0.5, 0.9) for z in (0.6, -0.6)
         for b, c in ((1, 2), (2, 3))])

    def route_spread(x):
        p = ModelPoint.from_x(x)
        lns = [route(p).ln_f for route in
               (fidelity_raw, fidelity_simplified, fidelity_modular)]
        return abs(math.expm1(max(lns) - min(lns)))

    def duality(x):
        kp = modulus_kprime(x)
        return abs(modulus_k(ModelPoint.from_x(x).x_dual) - kp) / kp

    def g_routes(x):
        p = ModelPoint.from_x(x)
        return abs(math.expm1(ln_g_series(p) - g_product(p)))

    return [
        ("qcalc_r1", max(r1 for r1, _ in qcalc)),
        ("qcalc_r2", max(r2 for _, r2 in qcalc)),
        ("minus_one_peel", max(minus_one_peel_residual(x ** 4)
                               for x in x_grid)),
        ("short_theta", max(
            short_theta_identity_residual(b, ModelPoint.from_x(x))
            for b, x in ((4.0, 0.5), (2.0, 0.7), (4.0, _SELF_DUAL_X),
                         (1.0, 0.4), (8.0, 0.6)))),
        ("three_path_fidelity", max(route_spread(x)
                                    for x in (0.3, 0.45, 0.6, 0.75, 0.9))),
        ("moduli_complementary", max(
            abs(modulus_k(z) ** 2 + modulus_kprime(z) ** 2 - 1.0)
            for z in (0.05, 0.25, 0.5, 0.7, 0.9))),
        ("moduli_duality", max(duality(x) for x in (0.3, 0.5, 0.7, 0.85, 0.95))),
        ("g_series_vs_product", max(g_routes(x) for x in x_grid)),
    ]
