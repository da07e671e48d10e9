"""Fidelity routes, the g factor, and the log-space identities."""
import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from xxzfidelity import (FidelityResult, InvalidSpec, ModelPoint,
                         NonConvergent, Path, evaluate_point, fidelity,
                         fidelity_modular, fidelity_raw, fidelity_simplified,
                         ln_g_series, log_correlation_length,
                         log_multibase_product, qproduct_direct)
from xxzfidelity import qseries
from xxzfidelity.fidelity import (CROSS_CHECK_WINDOW, LN_G_SWITCH_EPS,
                                  PATH_SWITCH_X, _LN_G_EVEN, _LN_G_REMAINDER,
                                  _LN_G_WEIGHTS, _QUARTER_LN2, _cvz_weights,
                                  _ln_g_expansion, _ln_g_sum,
                                  g_product, short_theta_identity_residual)

# 50-digit reference values (independent high-precision evaluation)
LN_F_02 = -0.1163764256178567616394
F_02 = 0.8901400886919394631241
LN_F_03 = -0.25395164743899431509
LN_F_05 = -0.68072159083328070407
F_05 = 0.5062515540522396552909
LN_F_08 = -2.587911397967448257313
F_08 = 0.07517689083591090420274
LN_F_SELF_DUAL = -0.0055936488743534521262  # x = e^{-pi}
LN_G_05 = 0.3816818138155189610407

QUARTER_LN2 = 0.25 * math.log(2.0)


def _bare_ln_g(q, n_rows=80):
    """Euler transform of the defining series sum (-1)^{N+1}/(N (1+q^N)^2).

    Partial-sum averaging converges geometrically for smooth alternating
    terms, so 80 rows is machine-limited; this shares no code with the
    accelerated implementation under test.
    """
    n = np.arange(1, n_rows + 1, dtype=np.float64)
    terms = 1.0 / (n * (1.0 + q ** n) ** 2)
    s = np.cumsum(terms * np.where(np.arange(1, n_rows + 1) % 2 == 1, 1.0, -1.0))
    while s.size > 1:
        s = 0.5 * (s[:-1] + s[1:])
    return float(s[0])


class TestReferenceValues:
    def test_selector_anchors(self):
        for x, ref in ((0.2, LN_F_02), (0.3, LN_F_03), (0.5, LN_F_05),
                       (0.8, LN_F_08)):
            got = fidelity(ModelPoint.from_x(x))
            assert abs(got.ln_f - ref) < 1e-11, x
            # the error estimate must be honest, not merely small
            assert abs(got.ln_f - ref) <= got.est_rel_error, x

    def test_f_fields(self):
        for x, ref in ((0.2, F_02), (0.5, F_05), (0.8, F_08)):
            got = fidelity(ModelPoint.from_x(x))
            assert got.f == pytest.approx(ref, rel=1e-11, abs=0)
            assert got.f == math.exp(got.ln_f)

    def test_every_route_at_self_dual_point(self):
        p = ModelPoint.from_eps(math.pi)
        for route in (fidelity_raw, fidelity_simplified, fidelity_modular):
            got = route(p)
            assert abs(got.ln_f - LN_F_SELF_DUAL) < 1e-12, route.__name__

    def test_raw_route_anchor(self):
        got = fidelity_raw(ModelPoint.from_x(0.3))
        assert abs(got.ln_f - LN_F_03) < 1e-11
        assert got.path is Path.RAW


class TestRouteAgreement:
    def test_three_routes_agree(self):
        for x in (0.35, 0.55, 0.75):
            p = ModelPoint.from_x(x)
            logs = [fidelity_raw(p).ln_f, fidelity_simplified(p).ln_f,
                    fidelity_modular(p).ln_f]
            spread = abs(math.expm1(max(logs) - min(logs)))
            assert spread < 1e-10, x

    def test_routes_finish_under_a_small_term_cap(self, monkeypatch):
        # at x = 0.9 the origin alone would leave up to 38 series terms;
        # with the box each takes about 10 (the box factors do not count
        # against the cap), so a cap of 20 is a deterministic work bound
        p = ModelPoint.from_x(0.9)
        modular, ln_g = fidelity_modular(p).ln_f, ln_g_series(p)
        monkeypatch.setattr(qseries, "SERIES_MAX_TERMS", 20)
        for route in (fidelity_simplified, fidelity_raw):
            assert abs(math.expm1(route(p).ln_f - modular)) < 1e-10, route
        assert abs(math.expm1(g_product(p) - ln_g)) < 1e-10

    def test_raw_respects_term_cap(self, monkeypatch):
        monkeypatch.setattr(qseries, "SERIES_MAX_TERMS", 5)
        with pytest.raises(NonConvergent):
            fidelity_raw(ModelPoint.from_x(0.5))

    @pytest.mark.parametrize("route", [fidelity_simplified, fidelity_raw])
    def test_slow_routes_converge_above_their_floor(self, route):
        # their NonConvergent floor lies near eps = 2.15e-6 (x ~ 0.9999979)
        p = ModelPoint.from_eps(3e-6)
        got = route(p)
        assert math.isfinite(got.ln_f) and math.isfinite(got.est_rel_error)
        # ln f is about -2e5 there; est_rel_error bounds its absolute error
        assert abs(got.ln_f - fidelity(p).ln_f) <= got.est_rel_error

    def test_simplified_route_stops_where_the_selector_goes_on(self):
        # below eps ~ 2.15e-6 its log series needs more than SERIES_MAX_TERMS
        p = ModelPoint.from_eps(1e-6)
        with pytest.raises(NonConvergent):
            fidelity_simplified(p)
        got = fidelity(p)
        assert math.isfinite(got.ln_f) and math.isfinite(got.est_rel_error)

    def test_estimate_follows_the_target(self, monkeypatch):
        # _combine reads qseries.REL_TOL when called, so the target that
        # loosens the series widens est_rel_error with it
        p = ModelPoint.from_x(0.5)
        tight = fidelity_simplified(p)
        monkeypatch.setattr(qseries, "REL_TOL", 1e-6)
        loose = fidelity_simplified(p)
        assert loose.est_rel_error > 1e5 * tight.est_rel_error
        assert abs(loose.ln_f - LN_F_05) <= loose.est_rel_error


class TestPathSelector:
    def test_path_choice(self):
        assert fidelity(ModelPoint.from_x(0.2)).path is Path.SIMPLIFIED
        assert fidelity(ModelPoint.from_x(PATH_SWITCH_X)).path is Path.SIMPLIFIED
        assert fidelity(ModelPoint.from_x(0.95)).path is Path.MODULAR

    def test_cross_check_folds_discrepancy_into_estimate(self):
        lo, hi = CROSS_CHECK_WINDOW
        x = 0.75
        assert lo <= x <= hi and x > PATH_SWITCH_X
        p = ModelPoint.from_x(x)
        checked = fidelity(p)
        bare = fidelity_modular(p)
        assert checked.ln_f == bare.ln_f
        assert checked.est_rel_error >= bare.est_rel_error
        assert checked.est_rel_error < 1e-9

    def test_continuous_across_switch(self):
        below = fidelity(ModelPoint.from_x(PATH_SWITCH_X - 1e-9))
        above = fidelity(ModelPoint.from_x(PATH_SWITCH_X + 1e-9))
        assert below.path is not above.path
        assert abs(below.ln_f - above.ln_f) < 1e-7


def _log_grid(lo, hi, n):
    return [math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * i / (n - 1))
            for i in range(n)]


def _point_bits(points) -> str:
    """sha256 of the .hex() of ln f, est_rel_error, path and ln xi at each point."""
    values = []
    for p in points:
        got = fidelity(p)
        values.append(f"{got.ln_f.hex()} {got.est_rel_error.hex()} "
                      f"{got.path.value} {log_correlation_length(p).hex()}")
    return hashlib.sha256("\n".join(values).encode()).hexdigest()


class TestFrozenBits:
    """Where every log series' box is the origin alone (every |z| <=
    qseries._PEEL_RATE) and ln g comes from its expansion, the results are
    pinned bit for bit; TestAccuracyAgainstMpmath checks the ln xi ones.
    The benchmark's two point ranges are pinned too: ln f, its estimate,
    its route and ln xi."""

    def test_correlation_length(self):
        # its nomes never exceed e^{-sqrt(2) pi} ~ 0.0118
        values = [log_correlation_length(ModelPoint.from_eps(eps)).hex()
                  for eps in _log_grid(1.2e-16, EPS_X_UNDERFLOW, 200)]
        assert hashlib.sha256("\n".join(values).encode()).hexdigest() == (
            "6b386925846f329ac8fede588d281eda6c0ba5dde22c365b47bb79ebc0bbfa7d")

    def test_fidelity_above_the_cross_check_window(self):
        # eps = 0.105 is x = 0.90032: modular route only, dual nome < e^{-93}
        values = []
        for eps in _log_grid(1.2e-16, 0.105, 200):
            got = fidelity(ModelPoint.from_eps(eps))
            values.append(f"{got.ln_f.hex()} {got.est_rel_error.hex()} "
                          f"{got.path.value}")
        assert hashlib.sha256("\n".join(values).encode()).hexdigest() == (
            "d379f26b597eb3a1920ae7760027fb4cb32c901c7cce39531b4b24bf0eab4f6a")

    def test_critical_eps_range(self):
        # eps log-spaced over [3e-5, 0.5]: the expansion and the CVZ sum of
        # ln g (LN_G_SWITCH_EPS), and both routes inside the cross-check
        # window (x in [0.6, 0.9] is eps in [0.105, 0.511])
        grid = _log_grid(3e-5, 0.5, 400)
        assert min(grid) <= LN_G_SWITCH_EPS < max(grid)
        assert _point_bits(ModelPoint.from_eps(eps) for eps in grid) == (
            "c748865ca9f0c4a6fdbe6548139633ab767d8577f6c76349028d3d6c18133772")

    def test_massive_x_range(self):
        # x evenly spaced over [0.05, 0.6): the simplified route alone, and
        # both forms of xi (the direct one below x ~ 0.1085)
        grid = [0.05 + 0.55 * i / 400 for i in range(400)]
        assert _point_bits(ModelPoint.from_x(x) for x in grid) == (
            "6308bd9052ec113473878edcffe02f0961a64c2131de8c5d38212b3172d33747")


def _mp_ln_f(eps):
    """40-digit ln f by the modular formula, ln g from _mp_ln_g."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        e = mpmath.mpf(eps)
        ln_xt = -mpmath.pi ** 2 / e
        xt = mpmath.exp(ln_xt)
        return float(-e / 4 + ln_xt / 16 + mpmath.log(mpmath.qp(-xt, xt))
                     - mpmath.log(mpmath.qp(mpmath.sqrt(xt), xt))
                     + _mp_ln_g(eps))


def _mp_ln_xi(eps):
    """40-digit ln xi = -ln atanh(k(x~)) from mpmath's modulus of a nome."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        xt = mpmath.exp(-mpmath.pi ** 2 / mpmath.mpf(eps))
        return float(-mpmath.log(mpmath.atanh(mpmath.kfrom(q=xt))))


class TestAccuracyAgainstMpmath:
    """Where every product of the simplified route and of xi has |z| <=
    qseries._PEEL_RATE, each log series takes the origin factor one by one
    and sums the rest, which keeps ln f and ln xi within 2e-14 of mpmath."""

    #: 40 evenly spaced x over [0.01, 0.34]; each eps is -ln x to 40 digits
    GRID = [0.01 + 0.33 * i / 39 for i in range(40)]

    def _eps(self, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            return -mpmath.log(mpmath.mpf(x))

    def test_simplified_ln_f(self):
        # the simplified route's largest |z| is x^2, xi's nomes are smaller
        assert max(self.GRID) ** 2 <= qseries._PEEL_RATE
        errors = []
        for x in self.GRID:
            ref = _mp_ln_f(self._eps(x))
            got = fidelity_simplified(ModelPoint.from_x(x)).ln_f
            errors.append(abs(got - ref) / abs(ref))
        assert float(np.median(errors)) <= 2e-14

    def test_ln_xi(self):
        for x in self.GRID:
            ref = _mp_ln_xi(self._eps(x))
            if abs(ref) > 1e-3:
                got = log_correlation_length(ModelPoint.from_x(x))
                assert abs(got - ref) <= 2e-14 * abs(ref), x


class TestShape:
    def test_f_strictly_decreasing_in_x(self):
        grid = [0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.97]
        logs = [fidelity(ModelPoint.from_x(x)).ln_f for x in grid]
        assert all(a > b for a, b in zip(logs, logs[1:]))

    def test_f_in_unit_interval(self):
        for x in (0.01, 0.3, 0.6, 0.9, 0.99):
            got = fidelity(ModelPoint.from_x(x))
            assert 0.0 < got.f < 1.0
            assert got.ln_f < 0.0

    def test_small_x_expansion(self):
        # f = 1 - 3 x^2 + O(x^4)
        x = 1e-6
        got = fidelity(ModelPoint.from_x(x))
        assert got.ln_f / (-3.0 * x * x) == pytest.approx(1.0, rel=1e-6, abs=0)

    def test_underflow_regime_keeps_ln_f(self):
        got = fidelity(ModelPoint.from_eps(1e-4))
        assert got.f == 0.0
        ref = -math.pi ** 2 / (16.0 * 1e-4) + QUARTER_LN2
        assert abs(got.ln_f - ref) < 1e-6


class TestGFactor:
    def test_series_matches_defining_sum(self):
        for x in (0.3, 0.5, 0.8):
            got = ln_g_series(ModelPoint.from_x(x))
            assert got == pytest.approx(_bare_ln_g(x * x), abs=1e-12), x

    def test_reference_value(self):
        assert abs(ln_g_series(ModelPoint.from_x(0.5)) - LN_G_05) < 1e-13

    def test_product_routes_agree_with_series(self):
        for x in (0.3, 0.5, 0.7, 0.8):
            p = ModelPoint.from_x(x)
            s = ln_g_series(p)
            peeled = g_product(p)
            # the same product with its |z| = 1 factor (-1; x^4, x^4) taken
            # by the direct lattice product instead of the peel identity
            x4 = x ** 4
            direct = (math.log(qproduct_direct(-1.0, (x4, x4)))
                      + log_multibase_product(-x4, (x4, x4))
                      - 2.0 * log_multibase_product(-x * x, (x4, x4)))
            assert abs(math.expm1(peeled - s)) < 1e-11, x
            assert abs(math.expm1(direct - s)) < 1e-11, x

    def test_limits(self):
        # x -> 0: ln g -> ln 2; x -> 1: ln g -> (ln 2)/4 with O(eps) approach
        assert abs(ln_g_series(ModelPoint.from_x(1e-8))
                   - math.log(2.0)) < 1e-10
        eps = 1e-4
        dev = ln_g_series(ModelPoint.from_eps(eps)) - QUARTER_LN2
        assert dev / eps == pytest.approx(0.25, abs=1e-3)

    def test_bounds_on_grid(self):
        for x in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            ln_g = ln_g_series(ModelPoint.from_x(x))
            assert QUARTER_LN2 < ln_g < math.log(2.0), x



def _mp_ln_g(eps):
    """40-digit ln g from the defining series, summed by mpmath.nsum."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        q = mpmath.exp(-2 * mpmath.mpf(eps))
        return float(mpmath.nsum(
            lambda n: (-1) ** (int(n) + 1) / (n * (1 + q ** n) ** 2),
            [1, mpmath.inf]))


#: the largest eps at which x = e^{-eps} is still a positive (subnormal) double
EPS_X_UNDERFLOW = 745.1332191019411
# log-uniform eps over the whole range where x = e^{-eps} is a double in (0,1)
EPS_SWEEP = st.floats(math.log(1.2e-16), math.log(EPS_X_UNDERFLOW)).map(math.exp)


class TestLnGRegimes:
    def test_coefficients_match_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            w = mpmath.taylor(lambda t: (1 + mpmath.exp(-t)) ** -2, 0, 30)
            c = [w[k] * mpmath.altzeta(1 - k) * 2 ** k for k in range(31)]
        assert _QUARTER_LN2 == float(c[0]) == 0.25 * math.log(2.0)
        assert float(c[1]) == 0.25
        assert all(c[k] == 0 for k in range(3, 31, 2))
        assert _LN_G_EVEN == tuple(float(c[k]) for k in range(2, 31, 2))

    @pytest.mark.parametrize("j", [15])
    def test_remainder_constants_match_mpmath(self, j):
        mpmath = pytest.importorskip("mpmath")
        eta = mpmath.altzeta

        def M(s):  # Mellin transform of ln g - ln 2 in t = 2 eps
            return -mpmath.gamma(s) * eta(1 + s) * (eta(s - 1) + eta(s))

        with mpmath.workdps(15):
            integral = mpmath.quad(lambda y: abs(M(-(2 * j + 1) + 1j * y)),
                                   [0, 1, 5, 20, 80])
            exact = float(2 ** (2 * j + 1) / mpmath.pi * integral)
        assert exact <= _LN_G_REMAINDER <= 1.1 * exact

    def test_remainder_bounds_hold(self):
        for eps in (LN_G_SWITCH_EPS, 0.1, 0.05, 0.01):
            exact = _mp_ln_g(eps)
            # the float sum carries a few ulps of rounding
            slack = _LN_G_REMAINDER * eps ** 31 + 1e-16
            assert abs(exact - _ln_g_expansion(eps)) <= slack, eps

    def test_switch_meets_the_tightest_tolerance(self):
        # the order-30 truncation error at the switch is within 10 machine
        # epsilons, so even a far tighter target than REL_TOL needs no series
        assert (_LN_G_REMAINDER * LN_G_SWITCH_EPS ** 31
                <= 10 * sys.float_info.epsilon * _QUARTER_LN2)

    # pytest.approx would add its default abs=1e-12, so these compare bare
    def test_regimes_agree_across_the_switch(self):
        for eps in (0.1, 0.12, LN_G_SWITCH_EPS):
            summed = _ln_g_sum(eps)
            assert abs(_ln_g_expansion(eps) - summed) <= 1e-14 * summed, eps
        below = ln_g_series(ModelPoint.from_eps(LN_G_SWITCH_EPS))
        above = ln_g_series(ModelPoint.from_eps(
            math.nextafter(LN_G_SWITCH_EPS, 1.0)))
        assert abs(below - above) <= 1e-14 * below

    @pytest.mark.parametrize("eps", [0.09, 0.12, 0.13, 0.14, 0.15])
    def test_ln_g_near_the_switch_matches_mpmath(self, eps):
        got = ln_g_series(ModelPoint.from_eps(eps))
        assert abs(got - _mp_ln_g(eps)) <= 1e-14 * got

    def test_no_term_cap_at_small_eps(self, monkeypatch):
        # the series alone would need ~7e5 terms here; it must not run
        def no_sum(eps):
            raise AssertionError(f"the series ran at eps={eps}")

        # the package binds the name fidelity to the function, not the module
        monkeypatch.setattr(sys.modules["xxzfidelity.fidelity"], "_ln_g_sum",
                            no_sum)
        got = ln_g_series(ModelPoint.from_eps(2e-5))
        assert got == pytest.approx(_mp_ln_g(2e-5), rel=1e-12, abs=0)

    def test_sum_is_within_3_ulp_of_ln2_of_mpmath(self):
        # 200 eps over the whole range the sum serves; eps > 372 includes
        # q = e^{-2 eps} underflowing to 0.  Its truncation error is below
        # 2^-60, so this is rounding alone: of terms that sum to up to 0.5
        # and a final ln 2 - acc, so the budget is 3 ulp of ln 2 (3.3e-16)
        budget = 3 * math.ulp(math.log(2.0))
        for eps in np.geomspace(math.nextafter(LN_G_SWITCH_EPS, 1.0), 745.0, 200):
            eps = float(eps)
            assert abs(_ln_g_sum(eps) - _mp_ln_g(eps)) <= budget, eps

    def test_cvz_bound_holds_and_sets_the_weight_count(self):
        mpmath = pytest.importorskip("mpmath")

        def algorithm_1(n):  # CVZ's weights as published, in mpmath
            d = (3 + mpmath.sqrt(8)) ** n
            d = (d + 1 / d) / 2
            b, c, weights = -1, -d, []
            for k in range(n):
                c = b - c
                weights.append(c / d)
                b = (k + n) * (k - n) * b / ((k + mpmath.mpf(0.5)) * (k + 1))
            return weights

        def bound(q, n):  # 2 TV / (3 + sqrt 8)^n, TV = 1/(1 - q)^2 - 1
            return 2 * q * (2 - q) / ((1 - q) ** 2 * (3 + mpmath.sqrt(8)) ** n)

        with mpmath.workdps(60):
            # the package's exact weights are the published ones
            weights = {}
            for n in (4, 8, 12, 16, 20, len(_LN_G_WEIGHTS)):
                weights[n] = [mpmath.mpf(c) / d for c, d in _cvz_weights(n)]
                assert max(abs(a - b) for a, b in zip(
                    weights[n], algorithm_1(n))) <= mpmath.mpf(10) ** -50
            for eps in np.geomspace(LN_G_SWITCH_EPS, 745.0, 12):
                q = mpmath.exp(-2 * mpmath.mpf(float(eps)))
                # terms a_k = u_{k+1}/(k+1) until q^K is 1e-70 of the first
                K = 21 + int(161 / (2 * float(eps)))
                a = [q ** N * (2 + q ** N) / ((1 + q ** N) ** 2 * N)
                     for N in range(1, K + 1)]
                for n in (4, 8, 12, 16, 20):
                    w = weights[n]
                    # sum_{k<n} w_k a_k - sum_k (-1)^k a_k, term by term
                    err = mpmath.fsum(
                        (w[k] if k < n else 0) * a[k] - (-1) ** k * a[k]
                        for k in range(K))
                    assert abs(err) <= bound(q, n), (float(eps), n)
            q_switch = mpmath.exp(-2 * mpmath.mpf(LN_G_SWITCH_EPS))
            n = len(_LN_G_WEIGHTS)
            assert bound(q_switch, n) <= mpmath.mpf(2) ** -60
            assert bound(q_switch, n - 1) > mpmath.mpf(2) ** -60
        # each float weight is the exact w_k / (k + 1) correctly rounded
        pairs = _cvz_weights(n)
        assert _LN_G_WEIGHTS == tuple(float(Fraction(c, d * (k + 1)))
                                      for k, (c, d) in enumerate(pairs))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(eps=EPS_SWEEP)
    @example(eps=0.125)
    @example(eps=math.nextafter(0.125, 1.0))
    @example(eps=0.126)
    def test_ln_g_matches_mpmath_everywhere(self, eps):
        got = ln_g_series(ModelPoint.from_eps(eps))
        assert math.isfinite(got)
        assert abs(got - _mp_ln_g(eps)) <= 1e-14 * abs(got)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(eps=st.floats(math.log(1.2e-16), math.log(0.5)).map(math.exp))
    def test_error_estimate_stays_honest(self, eps):
        ref = _mp_ln_f(eps)
        got = fidelity(ModelPoint.from_eps(eps))
        assert abs(got.ln_f - ref) <= got.est_rel_error

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(eps=EPS_SWEEP)
    def test_public_calls_finite_or_documented_error(self, eps):
        p = ModelPoint.from_eps(eps)
        point = evaluate_point(p)
        result = point.fidelity
        assert math.isfinite(result.ln_f) and math.isfinite(result.est_rel_error)
        assert result.ln_f <= 0.0 and result.f == math.exp(result.ln_f)
        ln_xi = point.ln_xi
        assert ln_xi == log_correlation_length(p)
        assert math.isfinite(ln_xi) and math.isfinite(point.ratio)
        if ln_xi <= math.log(sys.float_info.max):
            assert math.isfinite(point.xi)
        else:
            assert point.xi == math.inf


class TestIdentities:
    def test_theta_identity(self):
        p = ModelPoint.from_x(0.5)
        for b in (1.0, 1.5, 2.0, 8.0):
            assert short_theta_identity_residual(b, p) < 1e-10, b

    def test_theta_rejects_bad_b(self):
        p = ModelPoint.from_x(0.5)
        for bad in (0.0, -1.0):
            with pytest.raises(InvalidSpec):
                short_theta_identity_residual(bad, p)
        # b so small that x^b rounds to 1.0
        with pytest.raises(InvalidSpec):
            short_theta_identity_residual(1e-17, p)

    def test_theta_rejects_b_whose_series_powers_round_to_one(self):
        # x^b < 1 but x^(b/2) = 1, the left series' z; and x^b < 1 but
        # x~^(4/b) = 1, the right series' base: both refused as a b out of
        # reach at this eps, not by the series underneath
        for b, p in ((0.5, ModelPoint.from_eps(1.2e-16)),
                     (1e300, ModelPoint.from_x(0.5))):
            with pytest.raises(InvalidSpec) as refused:
                short_theta_identity_residual(b, p)
            assert f"for b={b!r}, eps={p.eps!r}" in str(refused.value)


class TestResultTypes:
    def test_frozen(self):
        got = fidelity(ModelPoint.from_x(0.5))
        with pytest.raises(AttributeError):
            got.ln_f = 0.0

    def test_result_fields(self):
        got = fidelity(ModelPoint.from_x(0.5))
        assert isinstance(got, FidelityResult)
        assert isinstance(got.path, Path)
        assert got.est_rel_error > 0.0
        assert type(ln_g_series(ModelPoint.from_x(0.5))) is float

    @pytest.mark.parametrize("x", [0.05, 0.3, 0.65, 0.8])
    def test_numpy_scalar_inputs_give_python_floats(self, x):
        # np.float64 subclasses float, so the check is on the exact type
        p = ModelPoint.from_x(x)
        q = ModelPoint(np.float64(p.x), np.float64(p.eps))
        z, a = np.float64(-x * x), np.float64(x ** 4)
        assert type(log_multibase_product(z, (a, a))) is float
        assert log_multibase_product(z, (a, a)) == log_multibase_product(
            float(z), (float(a), float(a)))
        assert type(ln_g_series(q)) is float
        got = fidelity(q)
        assert all(type(v) is float for v in (got.f, got.ln_f, got.est_rel_error))
        assert got == fidelity(p)
        ln_xi = log_correlation_length(q)
        assert type(ln_xi) is float
        assert ln_xi == log_correlation_length(p)
