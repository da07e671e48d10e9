"""Fidelity routes, the g factor, and the log-space identities."""
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xxzfidelity import (FidelityResult, InvalidSpec, ModelPoint,
                         NonConvergent, Path, Tolerance,
                         evaluate_point, fidelity, fidelity_modular,
                         fidelity_raw, fidelity_simplified, ln_g_series,
                         log_correlation_length, log_multibase_product,
                         qproduct_direct)
from xxzfidelity.fidelity import (CROSS_CHECK_WINDOW, LN_G_SWITCH_EPS,
                                  PATH_SWITCH_X, _LN_G_EVEN, _LN_G_REMAINDER,
                                  _QUARTER_LN2, _ln_g_expansion, _ln_g_sum,
                                  g_decomposition_residual, g_product,
                                  short_theta_identity_residual)

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
            assert got.f == pytest.approx(ref, rel=1e-11)
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

    def test_raw_respects_term_cap(self):
        with pytest.raises(NonConvergent):
            fidelity_raw(ModelPoint.from_x(0.5), Tolerance(1e-12, max_terms=5))


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
        assert got.ln_f / (-3.0 * x * x) == pytest.approx(1.0, rel=1e-6)

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

    def test_respects_term_cap(self):
        with pytest.raises(NonConvergent):
            ln_g_series(ModelPoint.from_eps(0.2), Tolerance(1e-12, max_terms=100))


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

    @pytest.mark.parametrize("j", [1, 15])
    def test_remainder_constants_match_mpmath(self, j):
        mpmath = pytest.importorskip("mpmath")
        eta = mpmath.altzeta

        def M(s):  # Mellin transform of ln g - ln 2 in t = 2 eps
            return -mpmath.gamma(s) * eta(1 + s) * (eta(s - 1) + eta(s))

        with mpmath.workdps(15):
            integral = mpmath.quad(lambda y: abs(M(-(2 * j + 1) + 1j * y)),
                                   [0, 1, 5, 20, 80])
            exact = float(2 ** (2 * j + 1) / mpmath.pi * integral)
        assert exact <= _LN_G_REMAINDER[j - 1] <= 1.1 * exact

    def test_remainder_bounds_hold(self):
        for eps in (0.15, 0.1, 0.05, 0.01):
            exact = _mp_ln_g(eps)
            partial = _QUARTER_LN2 + 0.25 * eps
            for j, (c, bound) in enumerate(zip(_LN_G_EVEN, _LN_G_REMAINDER), 1):
                partial += c * eps ** (2 * j)
                # the float partial sum carries a few ulps of rounding
                slack = bound * eps ** (2 * j + 1) + 1e-16
                assert abs(exact - partial) <= slack, (eps, j)

    def test_regimes_agree_across_the_switch(self):
        for rel_tol in (1e-12, 1e-8):
            for eps in (0.1, LN_G_SWITCH_EPS, 0.2):
                short = _ln_g_expansion(eps, rel_tol)
                if short is None:
                    continue
                summed = _ln_g_sum(eps, rel_tol, 10 ** 6)
                assert abs(short - summed) <= rel_tol * summed, (rel_tol, eps)
        rel_tol = Tolerance().rel_tol
        below = ln_g_series(ModelPoint.from_eps(LN_G_SWITCH_EPS))
        above = ln_g_series(ModelPoint.from_eps(
            math.nextafter(LN_G_SWITCH_EPS, 1.0)))
        assert abs(below - above) <= rel_tol * below

    def test_tight_tolerance_falls_back_to_the_series(self):
        eps = LN_G_SWITCH_EPS
        assert _ln_g_expansion(eps, Tolerance().rel_tol) is not None
        assert _ln_g_expansion(eps, 1e-14) is None
        got = ln_g_series(ModelPoint.from_eps(eps), Tolerance(1e-14))
        assert got == pytest.approx(_mp_ln_g(eps), rel=1e-14)

    def test_no_term_cap_at_small_eps(self):
        # the series alone would need ~7e5 terms here
        tol = Tolerance(1e-12, max_terms=100)
        got = ln_g_series(ModelPoint.from_eps(2e-5), tol)
        assert got == pytest.approx(_mp_ln_g(2e-5), rel=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(eps=EPS_SWEEP)
    def test_ln_g_matches_mpmath_everywhere(self, eps):
        tol = Tolerance()
        got = ln_g_series(ModelPoint.from_eps(eps), tol)
        assert math.isfinite(got)
        assert abs(got - _mp_ln_g(eps)) <= tol.rel_tol * abs(got)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(eps=st.floats(math.log(1.2e-16), math.log(0.5)).map(math.exp))
    def test_error_estimate_stays_honest(self, eps):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            e = mpmath.mpf(eps)
            ln_xt = -mpmath.pi ** 2 / e
            xt = mpmath.exp(ln_xt)
            ref = float(-e / 4 + ln_xt / 16 + mpmath.log(mpmath.qp(-xt, xt))
                        - mpmath.log(mpmath.qp(mpmath.sqrt(xt), xt))
                        + _mp_ln_g(eps))
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

    def test_g_decomposition(self):
        for ix in range(2, 10):
            x = ix * 0.1
            assert g_decomposition_residual(ModelPoint.from_x(x)) < 1e-10, x


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
        got = fidelity(q)
        assert all(type(v) is float for v in (got.f, got.ln_f, got.est_rel_error))
        assert got == fidelity(p)
        ln_xi = log_correlation_length(q)
        assert type(ln_xi) is float
        assert ln_xi == log_correlation_length(p)
