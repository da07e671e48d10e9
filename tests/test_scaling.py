"""Asymptotic references, least-squares extraction, point results."""
import math
import tracemalloc

import pytest

from xxzfidelity import (AsymptoticFit, InvalidSpec, ModelPoint, PointResult,
                         evaluate_point, fidelity, fidelity_modular,
                         fit_asymptote, ln_xi_reference,
                         log_correlation_length, minus_ln_f_reference,
                         qseries)
from xxzfidelity.scaling import (MAX_GRID_COUNT, collect_ln_xi,
                                 collect_minus_ln_f, log_spaced)

from xi_one import xi_one_x

TARGET_RATIO = 1 / 8  # c/8 with central charge c = 1


class TestReferenceFormulas:
    def test_substitution_points(self):
        # eps chosen so the 1/eps term contributes exactly 1
        assert ln_xi_reference(math.pi ** 2 / 2.0) == pytest.approx(
            1.0 - math.log(4.0), rel=1e-15, abs=0)
        assert minus_ln_f_reference(math.pi ** 2 / 16.0) == pytest.approx(
            1.0 - 0.25 * math.log(2.0), rel=1e-15, abs=0)

    def test_leading_coefficient_ratio(self):
        # the 1/eps coefficients are in the exact ratio c/8
        eps = 1e-9
        ratio = minus_ln_f_reference(eps) / ln_xi_reference(eps)
        assert ratio == pytest.approx(TARGET_RATIO, abs=1e-9)

    def test_rejects_nonpositive_eps(self):
        for bad in (0.0, -1.0):
            with pytest.raises(InvalidSpec):
                ln_xi_reference(bad)
            with pytest.raises(InvalidSpec):
                minus_ln_f_reference(bad)


class TestFitAsymptote:
    def test_exact_recovery(self):
        samples = [(e, 2.0 / e + 3.0 + 5.0 * e) for e in (0.1, 0.2, 0.4, 0.8)]
        fit = fit_asymptote(samples)
        assert fit.A == pytest.approx(2.0, abs=1e-12)
        assert fit.B == pytest.approx(3.0, abs=1e-12)
        assert fit.C == pytest.approx(5.0, abs=1e-12)
        assert fit.max_residual < 1e-10
        assert fit.sample_count == 4
        assert fit.model(0.3) == pytest.approx(2.0 / 0.3 + 3.0 + 1.5,
                                               rel=1e-13, abs=0)

    def test_deterministic(self):
        samples = [(e, 1.0 / e - 0.3 + 0.01 * e) for e in (0.01, 0.03, 0.1, 0.5)]
        a = fit_asymptote(samples)
        b = fit_asymptote(samples)
        assert (a.A, a.B, a.C, a.max_residual) == (b.A, b.B, b.C, b.max_residual)

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            fit_asymptote([(0.1, 1.0), (0.2, 2.0)])
        with pytest.raises(InvalidSpec):
            fit_asymptote([(0.1, 1.0), (0.1, 2.0), (0.3, 3.0)])
        with pytest.raises(InvalidSpec):
            fit_asymptote([(0.0, 1.0), (0.2, 2.0), (0.3, 3.0)])
        with pytest.raises(InvalidSpec):
            fit_asymptote([(-0.1, 1.0), (0.2, 2.0), (0.3, 3.0)])
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidSpec):
                fit_asymptote([(0.1, 1.0), (0.2, 1.0), (bad, 2.0)])
            with pytest.raises(InvalidSpec):
                fit_asymptote([(0.1, 1.0), (0.2, bad), (0.3, 2.0)])

    def test_samples_must_be_pairs(self):
        # a sample of any other length is refused by the one sample check;
        # a non-numeric entry stays a TypeError
        for bad in ([(1e-3,), (2e-3,), (3e-3,)],
                    [(1e-3, 1.0), (2e-3, 2.0), (3e-3, 3.0, 4.0)]):
            with pytest.raises(InvalidSpec, match=r"\(eps, y\) pair"):
                fit_asymptote(bad)
        with pytest.raises(TypeError):
            fit_asymptote([("a", 1.0), (2e-3, 2.0), (3e-3, 3.0)])

    def test_singular_when_underdetermined(self):
        # distinct positive eps, but 1/eps swamps the other columns: rank 2
        with pytest.raises(InvalidSpec, match="rank 2 < 3"):
            fit_asymptote([(1e-16, 1.0), (1.0, 2.0), (745.0, 3.0)])


class TestLogSpaced:
    def test_endpoints_and_monotonicity(self):
        grid = log_spaced(1e-3, 1e-2, 10)
        assert len(grid) == 10
        assert grid[0] == 1e-3
        assert grid[-1] == 1e-2
        assert all(a < b for a, b in zip(grid, grid[1:]))
        # log-spacing means constant successive ratios
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-12, abs=0)

    def test_degenerate_cases(self):
        assert log_spaced(0.5, 0.5, 3) == [0.5, 0.5, 0.5]
        assert log_spaced(0.2, 0.8, 1) == [0.2]

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            log_spaced(0.0, 1.0, 5)
        with pytest.raises(InvalidSpec):
            log_spaced(2.0, 1.0, 5)
        # a bool is an Integral, but not a count
        for bad in (0, 2.5, 3.0, "3", True, False):
            with pytest.raises(InvalidSpec):
                log_spaced(0.1, 1.0, bad)
        for lo, hi in ((1.0, math.inf), (math.inf, math.inf), (math.nan, 1.0),
                       (0.1, math.nan)):
            with pytest.raises(InvalidSpec):
                log_spaced(lo, hi, 3)

    def test_oversized_count_refused_before_allocating(self):
        # 10**400 is past the float range, 10**5000 past repr()'s digit limit
        tracemalloc.start()
        try:
            for count in (MAX_GRID_COUNT + 1, 10 ** 400, 10 ** 5000):
                for lo, hi in ((1e-3, 1e-2), (0.5, 0.5)):
                    with pytest.raises(InvalidSpec):
                        log_spaced(lo, hi, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestCollectors:
    def test_minus_ln_f_samples(self):
        eps_values = [1e-3, 3e-3, 1e-2]
        samples = collect_minus_ln_f(eps_values)
        assert [e for e, _ in samples] == eps_values
        for e, y in samples:
            assert y == -fidelity_modular(ModelPoint.from_eps(e)).ln_f
            assert y > 0.0

    def test_ln_xi_samples_track_reference(self):
        samples = collect_ln_xi([1e-3, 1e-2])
        for e, y in samples:
            assert abs(y - ln_xi_reference(e)) < 1e-2 * y


class TestExtractedCoefficients:
    def test_fidelity_asymptote(self):
        samples = collect_minus_ln_f(log_spaced(1e-3, 1e-2, 10))
        fit = fit_asymptote(samples)
        assert fit.A == pytest.approx(math.pi ** 2 / 16.0, rel=1e-7, abs=0)
        assert fit.B == pytest.approx(-0.25 * math.log(2.0), abs=1e-4)

    def test_xi_asymptote(self):
        fit = fit_asymptote(collect_ln_xi(log_spaced(1e-3, 1e-2, 10)))
        assert fit.A == pytest.approx(math.pi ** 2 / 2.0, rel=1e-12, abs=0)
        assert fit.B == pytest.approx(-math.log(4.0), abs=1e-10)
        assert abs(fit.C) < 1e-8

    def test_residual_scales_quadratically(self):
        # -ln f - reference = -(eps^2/16)(1 + O(eps)): the remainder beyond
        # the reference is O(eps) as claimed, but its measured decay exponent
        # is 2, not 1 — the eps^1 coefficient vanishes identically.
        points = {}
        for eps in (3e-3, 1e-2, 3e-2, 1e-1):
            r = (-fidelity_modular(ModelPoint.from_eps(eps)).ln_f
                 - minus_ln_f_reference(eps))
            assert abs(r) <= 0.01 * eps, eps
            assert r / (-eps * eps / 16.0) == pytest.approx(1.0, abs=5e-3), eps
            points[eps] = abs(r)
        slope = (math.log(points[1e-1] / points[3e-3])
                 / math.log(1e-1 / 3e-3))
        assert 1.8 < slope < 2.2


class TestConjectureRatio:
    def test_deviation_values_and_monotone_approach(self):
        devs = []
        for eps, ref_dev in ((1e-2, -1.270125e-08), (1e-3, -1.266869e-11),
                             (1e-4, -1.265654e-14)):
            dev = evaluate_point(ModelPoint.from_eps(eps)).ratio - TARGET_RATIO
            assert dev == pytest.approx(ref_dev, rel=0.05, abs=0), eps
            devs.append(abs(dev))
        assert devs[0] > devs[1] > devs[2]

    def test_extreme_scaling_regime(self):
        # xi ~ 10^{2e6} here; everything must survive in log space
        point = evaluate_point(ModelPoint.from_eps(1e-6))
        assert abs(point.ratio - TARGET_RATIO) < 1e-12
        assert point.xi == math.inf

    def test_tiny_x_ratio_is_zero(self):
        # the true ratio is ~1e-601, so it rounds to zero
        assert evaluate_point(ModelPoint.from_x(1e-300)).ratio == 0.0

    def test_moderate_x_is_far_from_limit(self):
        # at x = 0.5 the ratio is nowhere near c/8 yet
        ratio = evaluate_point(ModelPoint.from_x(0.5)).ratio
        assert ratio == pytest.approx(0.68072159083 / 5.73311942821,
                                      rel=1e-9, abs=0)

    def test_ratio_is_inf_where_xi_is_one(self):
        # ln xi rounds to zero at this x, so the ratio has no finite value
        point = evaluate_point(ModelPoint.from_x(xi_one_x()))
        assert point.ln_xi == 0.0
        assert point.xi == 1.0
        assert point.ratio == math.inf
        assert math.isfinite(point.fidelity.ln_f)


class TestPointResult:
    def test_one_call_each(self, monkeypatch):
        monkeypatch.setattr(qseries, "REL_TOL", 1e-10)
        p = ModelPoint.from_x(0.3)
        point = evaluate_point(p)
        assert point == PointResult(fidelity(p), log_correlation_length(p))
        assert point.xi == math.exp(point.ln_xi)
        assert point.ratio == -point.fidelity.ln_f / point.ln_xi
        with pytest.raises(AttributeError):
            point.ln_xi = 0.0


def test_fit_type_is_frozen():
    fit = AsymptoticFit(A=1.0, B=2.0, C=3.0, max_residual=0.0, sample_count=3)
    with pytest.raises(AttributeError):
        fit.A = 4.0
