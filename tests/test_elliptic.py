"""Model points, elliptic moduli, nome duality, correlation length."""
import math

import pytest

from xxzfidelity import (InvalidSpec, ModelPoint, evaluate_point,
                         log_correlation_length, qseries)
from xxzfidelity.elliptic import modulus_k, modulus_kprime

# 50-digit reference values (independent high-precision evaluation)
K_025 = 0.9935469827401039810989
KPRIME_025 = 0.1134213079100903415348
K_004 = 0.6880610812244170165043
LN_XI_02 = 1.6769738168664083291
LN_XI_05 = 5.7331194282139301106
XI_05 = 308.93145636014032487

#: the largest eps at which x = e^{-eps} is still a positive (subnormal) double
EPS_X_UNDERFLOW = 745.1332191019411
#: eps at which x^2 = x~, where log_correlation_length changes nome
EPS_NOME_CROSSOVER = math.pi / math.sqrt(2.0)


def _mp_ln_xi(eps):
    """50-digit ln xi from mpmath's modulus of a nome: 1/xi = -1/2 ln k(x^2)
    for eps > 1 and atanh(k(x~)) otherwise."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        e = mpmath.mpf(eps)
        if e > 1:
            inv_xi = -mpmath.log(mpmath.kfrom(q=mpmath.exp(-2 * e))) / 2
        else:
            inv_xi = mpmath.atanh(mpmath.kfrom(q=mpmath.exp(-mpmath.pi ** 2 / e)))
        return float(-mpmath.log(inv_xi))


class TestModelPoint:
    def test_from_x_consistency(self):
        p = ModelPoint.from_x(0.5)
        assert p.eps == pytest.approx(math.log(2.0), rel=1e-15, abs=0)
        assert p.delta == -1.25
        assert p.x_dual == pytest.approx(math.exp(-math.pi ** 2 / p.eps),
                                         rel=1e-15, abs=0)

    def test_from_eps_round_trip(self):
        p = ModelPoint.from_eps(0.25)
        assert p.x == pytest.approx(math.exp(-0.25), rel=1e-15, abs=0)
        q = ModelPoint.from_x(p.x)
        assert q.eps == pytest.approx(p.eps, rel=1e-14, abs=0)

    def test_from_eps_up_to_x_underflow(self):
        # x is subnormal from eps ~708.4 and rounds to 0 beyond eps_max
        eps_max = 745.1332191019411
        for eps in [700.0 + i * (eps_max - 700.0) / 3999 for i in range(4000)]:
            p = ModelPoint.from_eps(eps)
            assert p.eps == eps and p.x > 0.0
        assert ModelPoint.from_eps(eps_max).x == 5e-324
        with pytest.raises(InvalidSpec):
            ModelPoint.from_eps(math.nextafter(eps_max, math.inf))

    def test_delta_below_minus_one(self):
        for x in (1e-6, 0.1, 0.5, 0.9, 0.999999):
            assert ModelPoint.from_x(x).delta < -1.0

    def test_rejects_inconsistent_fields(self):
        good = ModelPoint.from_x(0.5)
        with pytest.raises(InvalidSpec):
            ModelPoint(good.x, good.eps + 0.1)
        subnormal = ModelPoint.from_eps(740.0)
        with pytest.raises(InvalidSpec):
            ModelPoint(subnormal.x, 739.0)
        # delta is -inf exactly where 1/x overflows
        assert ModelPoint.from_eps(720.0).delta == -math.inf

    def test_rejects_out_of_range(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InvalidSpec):
                ModelPoint.from_x(bad)
        with pytest.raises(InvalidSpec):
            ModelPoint.from_eps(0.0)
        with pytest.raises(InvalidSpec):
            ModelPoint.from_eps(-1.0)

    def test_dual_involution(self):
        p = ModelPoint.from_x(0.3)
        back = ModelPoint.from_x(ModelPoint.from_x(p.x_dual).x_dual)
        assert back.x == pytest.approx(p.x, rel=1e-12, abs=0)

    def test_self_dual_fixed_point(self):
        p = ModelPoint.from_eps(math.pi)
        assert p.x_dual == pytest.approx(p.x, rel=1e-14, abs=0)
        assert ModelPoint.from_x(p.x_dual).x == pytest.approx(p.x, rel=1e-14,
                                                              abs=0)

    def test_dual_point_underflow(self):
        # eps so small that exp(-pi^2/eps) rounds to zero as a double
        p = ModelPoint.from_eps(0.01)
        assert p.x_dual == 0.0
        assert p.ln_x_dual == pytest.approx(-math.pi ** 2 / 0.01, rel=1e-15,
                                            abs=0)
        # no ModelPoint exists at x~ = 0.0
        with pytest.raises(InvalidSpec):
            ModelPoint.from_x(p.x_dual)


class TestModuli:
    def test_reference_values(self):
        assert modulus_k(0.25) == pytest.approx(K_025, rel=5e-12, abs=0)
        assert modulus_kprime(0.25) == pytest.approx(KPRIME_025, rel=5e-12,
                                                     abs=0)
        assert modulus_k(0.04) == pytest.approx(K_004, rel=5e-12, abs=0)

    def test_small_nome_leading_order(self):
        z = 1e-10
        assert modulus_k(z) / (4.0 * math.sqrt(z)) == pytest.approx(1.0, abs=1e-8)
        assert modulus_kprime(1e-12) == pytest.approx(1.0, abs=1e-10)

    def test_kprime_strictly_decreasing(self):
        assert modulus_kprime(0.81) < modulus_kprime(0.25)

    def test_complementary_relation_grid(self):
        for iz in range(1, 19):
            z = iz * 0.05
            assert abs(modulus_k(z) ** 2 + modulus_kprime(z) ** 2 - 1.0) < 1e-10, z

    def test_duality_grid(self):
        for ix in range(6, 20):
            x = ix * 0.05
            p = ModelPoint.from_x(x)
            assert abs(modulus_kprime(x) - modulus_k(p.x_dual)) < 1e-10, x

    def test_rejects_out_of_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(InvalidSpec):
                modulus_k(bad)
            with pytest.raises(InvalidSpec):
                modulus_kprime(bad)


class TestCorrelationLength:
    def test_reference_values(self):
        assert log_correlation_length(ModelPoint.from_x(0.2)) == pytest.approx(
            LN_XI_02, rel=1e-12, abs=0)
        assert log_correlation_length(ModelPoint.from_x(0.5)) == pytest.approx(
            LN_XI_05, rel=1e-11, abs=0)
        assert evaluate_point(ModelPoint.from_x(0.5)).xi == pytest.approx(
            XI_05, rel=1e-10, abs=0)

    def test_matches_mpmath_across_the_range(self, monkeypatch):
        # 64 log-spaced eps over the whole range, and pairs of points on
        # either side of the crossover, where the route changes
        lo, hi = math.log(1.2e-16), math.log(EPS_X_UNDERFLOW)
        grid = [math.exp(lo + (hi - lo) * i / 63) for i in range(63)]
        grid += [EPS_X_UNDERFLOW] + [EPS_NOME_CROSSOVER * (1.0 + s * d)
                                     for s in (-1.0, 1.0)
                                     for d in (1e-12, 1e-6, 1e-3, 1e-1)]
        refs = [_mp_ln_xi(eps) for eps in grid]
        for rel_tol in (1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 2.3e-15):
            monkeypatch.setattr(qseries, "REL_TOL", rel_tol)
            for eps, ref in zip(grid, refs):
                got = log_correlation_length(ModelPoint.from_eps(eps))
                assert abs(got - ref) <= rel_tol * abs(ref), (eps, rel_tol)

    def test_strictly_increasing_in_x(self):
        grid = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.65, 0.7, 0.75, 0.8, 0.9, 0.95]
        values = [log_correlation_length(ModelPoint.from_x(x)) for x in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_small_x_leading_order(self):
        # k(x^2) ~ 4x, so 1/xi ~ -ln(4x)/2... assembled through the product
        x = 1e-8
        got = log_correlation_length(ModelPoint.from_x(x))
        expected = -math.log(-0.5 * math.log(4.0 * x))
        assert got == pytest.approx(expected, rel=1e-7, abs=0)

    def test_asymptote_small_eps(self):
        for eps, budget in ((1e-3, 1e-2), (1e-5, 1e-4)):
            ln_xi = log_correlation_length(ModelPoint.from_eps(eps))
            ref = math.pi ** 2 / (2.0 * eps) - math.log(4.0)
            assert abs(ln_xi - ref) < budget

    def test_xi_overflow(self):
        # ln xi ~ pi^2/(2 eps) exceeds ln(double max) near eps ~ 7e-3, where
        # xi reads inf and the log-space field stays finite
        point = evaluate_point(ModelPoint.from_eps(1e-3))
        assert point.xi == math.inf
        assert math.isfinite(point.ln_xi)

    def test_tiny_x_resolves_xi(self):
        # here k'(x) rounds to 1, and the direct form needs no k'
        p = ModelPoint.from_x(1e-300)
        assert log_correlation_length(p) == pytest.approx(
            _mp_ln_xi(p.eps), rel=1e-12, abs=0)

    def test_tolerance_is_honored(self, monkeypatch):
        p = ModelPoint.from_x(0.5)
        monkeypatch.setattr(qseries, "REL_TOL", 1e-8)
        loose = log_correlation_length(p)
        monkeypatch.setattr(qseries, "REL_TOL", 1e-13)
        tight = log_correlation_length(p)
        assert loose == pytest.approx(tight, rel=1e-7, abs=0)
