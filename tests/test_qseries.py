"""Multi-base product evaluation: both strategies, tolerances, identities."""
import math
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from xxzfidelity import (InvalidSpec, NonConvergent, Overflow, Tolerance,
                         log_multibase_product, qproduct_direct)
from xxzfidelity import qseries
from xxzfidelity.qseries import (DEFAULT_REL_TOL, DIRECT_MAX_TERMS,
                                 SERIES_MAX_TERMS, minus_one_peel_residual,
                                 verify_qcalc_identities)


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.rel_tol == DEFAULT_REL_TOL
        assert tol.max_terms is None
        assert tol.cap(SERIES_MAX_TERMS) == SERIES_MAX_TERMS
        assert tol.cap(DIRECT_MAX_TERMS) == DIRECT_MAX_TERMS

    def test_max_terms_override(self):
        assert Tolerance(max_terms=123).cap(10 ** 6) == 123

    def test_rejects_sub_epsilon_rel_tol(self):
        with pytest.raises(InvalidSpec):
            Tolerance(rel_tol=1e-16)

    def test_rejects_rel_tol_not_below_one(self):
        for bad in (1.0, 2.0, math.inf, math.nan):
            with pytest.raises(InvalidSpec):
                Tolerance(rel_tol=bad)
        assert Tolerance(rel_tol=0.5).rel_tol == 0.5

    def test_allows_tight_but_legal_rel_tol(self):
        assert Tolerance(rel_tol=1e-14).rel_tol == 1e-14

    def test_rejects_nonpositive_max_terms(self):
        with pytest.raises(InvalidSpec):
            Tolerance(max_terms=0)

    def test_rejects_non_integer_max_terms(self):
        for bad in (2.5, 100.0, "100"):
            with pytest.raises(InvalidSpec):
                Tolerance(1e-12, bad)


# outside the domain both strategies share: |z| <= 1, a nonempty sequence
# of bases in [0, 1); 10**5000 is past repr()'s digit limit
OUTSIDE_SHARED_DOMAIN = [
    (0.5, ()), (0.5, (1.0,)), (0.5, (0.5, -0.1)), (0.5, (math.nan,)),
    (0.5, (math.inf,)), (0.5, (10 ** 5000,)), (0.5, (-10 ** 5000,)),
    (1.5, (0.5,)), (-1.5, (0.5,)), (math.nan, (0.5,)), (math.inf, (0.5,)),
    (10 ** 5000, (0.5,)), (-10 ** 5000, (0.5,)),
]


class TestQProductSpec:
    """The (z, bases) specification of a product, as each strategy checks it."""

    STRATEGIES = (log_multibase_product, qproduct_direct)

    def test_validates_bases(self):
        for strategy in self.STRATEGIES:
            for bases in ((), (1.0,), (0.5, -0.1)):
                with pytest.raises(InvalidSpec):
                    strategy(0.5, bases)

    def test_validates_z(self):
        for strategy in self.STRATEGIES:
            with pytest.raises(InvalidSpec):
                strategy(1.5, (0.5,))

    def test_unit_z_is_legal(self):
        # |z| = 1 is inside the shared domain; only the series refuses it
        assert qproduct_direct(1.0, (0.5,)) == 0.0
        assert math.isfinite(qproduct_direct(-1.0, (0.5, 0.5)))
        with pytest.raises(InvalidSpec, match=r"\|z\| < 1"):
            log_multibase_product(-1.0, (0.5, 0.5))


class TestProductDomain:
    @pytest.mark.parametrize("strategy, extra, other", [
        # the series needs |z| < 1; a zero base is legal there
        (log_multibase_product, [(1.0, (0.5,)), (-1.0, (0.5, 0.5))],
         [(0.5, (0.5, 0.0)), (0.0, (0.0,))]),
        # the direct product needs every base > 0; |z| = 1 is legal there
        (qproduct_direct, [(0.5, (0.5, 0.0)), (0.0, (0.0,))],
         [(1.0, (0.5,)), (-1.0, (0.5, 0.5))]),
    ], ids=["series", "direct"])
    def test_domain(self, strategy, extra, other):
        for z, bases in OUTSIDE_SHARED_DOMAIN + extra:
            with pytest.raises(InvalidSpec):
                strategy(z, bases)
        for z, bases in other:
            assert math.isfinite(strategy(z, bases)), (z, bases)


class TestLogSeries:
    def test_zero_z(self):
        assert log_multibase_product(0.0, (0.5,)) == 0.0

    def test_single_base_matches_factor_expansion(self):
        # ln prod (1 - z a^n) summed factor by factor, tiny a so 3 factors do
        z, a = 0.3, 1e-5
        expected = sum(math.log1p(-z * a ** n) for n in range(25))
        got = log_multibase_product(z, (a,))
        assert got == pytest.approx(expected, rel=1e-13)

    def test_rejects_unit_z(self):
        with pytest.raises(InvalidSpec):
            log_multibase_product(1.0, (0.5,))
        with pytest.raises(InvalidSpec):
            log_multibase_product(-1.0, (0.5,))

    def test_rejects_base_one(self):
        with pytest.raises(InvalidSpec):
            log_multibase_product(0.5, (1.0,))

    def test_sum_beyond_the_float_range_raises_overflow(self):
        # each denominator factor is about m 2^-53: with 20 bases the first
        # term overflows, with 21 the denominator underflows to 0
        base = 1.0 - 2.0 ** -53
        assert math.isfinite(log_multibase_product(0.5, (base,) * 19))
        for n in (20, 21, 40):
            with pytest.raises(Overflow):
                log_multibase_product(0.5, (base,) * n)
        with pytest.raises(Overflow):
            log_multibase_product(-0.5, (base,) * 20)

    def test_tolerates_underflowed_base_zero(self):
        # (z; 0)_inf has the single factor (1 - z)
        got = log_multibase_product(0.25, (0.0,))
        assert got == pytest.approx(math.log1p(-0.25), rel=1e-14)

    def test_nonconvergent_when_capped(self):
        with pytest.raises(NonConvergent):
            log_multibase_product(0.9, (0.5,), Tolerance(max_terms=3))


class TestDirectProduct:
    def test_zero_z_is_one(self):
        assert qproduct_direct(0.0, (0.5,)) == 1.0

    def test_unit_z_zero_factor(self):
        # z = 1: the n = 0 factor is exactly (1 - 1) = 0
        assert qproduct_direct(1.0, (0.5,)) == 0.0

    def test_minus_one_leading_factor(self):
        # (-1; a)_inf = 2 (-a; a)_inf: the n = 0 factor is exactly 2
        a = 0.3
        full = qproduct_direct(-1.0, (a,))
        peeled = qproduct_direct(-a, (a,))
        assert full == pytest.approx(2.0 * peeled, rel=3e-12)

    def test_agrees_with_series_two_bases(self):
        args = (0.25, (0.0625, 0.0625))
        direct = qproduct_direct(*args)
        series = math.exp(log_multibase_product(*args))
        assert direct == pytest.approx(series, rel=2e-12)

    def test_nonconvergent_when_capped(self):
        with pytest.raises(NonConvergent):
            qproduct_direct(0.5, (0.9, 0.9), Tolerance(max_terms=10))

    def test_overflow_is_documented(self):
        # ln (-1; 0.999)_inf is about 820 > ln(DBL_MAX)
        with pytest.raises(Overflow):
            qproduct_direct(-1.0, (0.999,))


def _loop_direct_pass(z, bases, suffix_mass, cutoff, max_terms):
    """Reference: the lattice walked point by point, recursively, with one
    math.log1p per retained factor summed in order."""
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
                    raise NonConvergent("reference exceeded max_terms")
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


def _suffix_mass(bases):
    mass = [1.0] * (len(bases) + 1)
    for i in range(len(bases) - 1, -1, -1):
        mass[i] = mass[i + 1] / (1.0 - bases[i])
    return mass


def _pass_or_none(direct_pass, *args):
    try:
        return direct_pass(*args)
    except NonConvergent:
        return None


class TestDirectPass:
    @settings(max_examples=80, deadline=None)
    @given(
        z=st.floats(min_value=-1.0, max_value=1.0),
        bases=st.lists(st.floats(min_value=0.05, max_value=0.9),
                       min_size=1, max_size=3),
        rel_tol=st.floats(min_value=1e-13, max_value=1e-6),
        slab=st.sampled_from([1, 7, qseries._SLAB]),
    )
    def test_matches_the_loop(self, z, bases, rel_tol, slab):
        # slabs of 1 and 7 points cut the last direction's runs everywhere
        args = (z, bases, _suffix_mass(bases), rel_tol / 10.0, 20_000)
        expected = _pass_or_none(_loop_direct_pass, *args)
        with mock.patch.object(qseries, "_SLAB", slab):
            got = _pass_or_none(qseries._direct_pass, *args)
        assert (got is None) == (expected is None)
        if expected is None:
            return
        log_acc, omitted, zero_factor, count = got
        assert count == expected[3]
        assert zero_factor == expected[2]
        assert omitted == pytest.approx(expected[1], rel=1e-14)
        if not zero_factor:
            assert log_acc == pytest.approx(expected[0], rel=0.0, abs=1e-11)

    @pytest.mark.parametrize("bases", [(0.7,), (0.3, 0.6), (0.5, 0.2, 0.4)])
    def test_max_terms_boundary(self, bases):
        args = (0.5, bases, _suffix_mass(bases), 1e-10)
        count = qseries._direct_pass(*args, 10 ** 9)[3]
        assert count == _loop_direct_pass(*args, 10 ** 9)[3]
        assert qseries._direct_pass(*args, count)[3] == count
        with pytest.raises(NonConvergent):
            qseries._direct_pass(*args, count - 1)

    @pytest.mark.parametrize("bases", [(1.0 - 1e-12,), (0.5, 1.0 - 1e-12)])
    def test_cap_checked_before_allocating(self, bases):
        # about 3e13 points per prefix: only the estimate may see them
        tracemalloc.start()
        try:
            with pytest.raises(NonConvergent):
                qproduct_direct(0.5, bases, Tolerance(max_terms=20_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_sum_stays_inside_rel_tol(self):
        # about a million factors; summed in order they missed by 5e-11
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            z, a = mpmath.mpf(0.5), mpmath.mpf(0.8)
            ln_ref = -mpmath.nsum(lambda m: z ** m / (m * (1 - a ** m) ** 3),
                                  [1, mpmath.inf])
        got = math.log(qproduct_direct(0.5, (0.8, 0.8, 0.8)))
        assert abs(got - float(ln_ref)) <= 2e-12


class TestPathAgreement:
    @settings(max_examples=120, deadline=None)
    @given(
        z=st.floats(min_value=-0.95, max_value=0.95).filter(lambda v: abs(v) > 1e-12),
        bases=st.lists(st.floats(min_value=0.05, max_value=0.9),
                       min_size=1, max_size=2),
    )
    def test_strategies_agree_within_combined_tolerance(self, z, bases):
        direct = qproduct_direct(z, bases)
        log_value = log_multibase_product(z, bases)
        series = math.exp(log_value)
        # direct certifies rel_tol on the value; the series certifies
        # rel_tol on the log, i.e. rel_tol * |log| on the value
        budget = (2.0 + 2.0 * abs(log_value)) * DEFAULT_REL_TOL
        assert direct == pytest.approx(series, rel=budget)

    @settings(max_examples=30, deadline=None)
    @given(z=st.floats(min_value=-0.9, max_value=0.9).filter(lambda v: abs(v) > 1e-6),
           base=st.floats(min_value=0.05, max_value=0.9))
    def test_monotone_truncation(self, z, base):
        # tightening rel_tol moves the result by less than the looser tolerance
        loose = qproduct_direct(z, (base,), Tolerance(rel_tol=1e-8))
        tight = qproduct_direct(z, (base,), Tolerance(rel_tol=1e-13))
        assert abs(loose - tight) <= 1e-8 * abs(tight)
        loose_log = log_multibase_product(z, (base,), Tolerance(rel_tol=1e-8))
        tight_log = log_multibase_product(z, (base,), Tolerance(rel_tol=1e-13))
        assert abs(loose_log - tight_log) <= 1.5e-8 * abs(tight_log) + 1e-15


class TestQCalcIdentities:
    def test_reference_point(self):
        r1, r2 = verify_qcalc_identities(0.5, 0.3, 2, 3)
        assert r1 < 1e-12
        assert r2 < 1e-12

    def test_zero_z_exact(self):
        assert verify_qcalc_identities(0.5, 0.0, 2, 3) == (0.0, 0.0)

    def test_large_x_negative_z(self):
        r1, r2 = verify_qcalc_identities(0.9, -0.5, 1, 2)
        assert r1 < 1e-10
        assert r2 < 1e-10

    def test_grid_residuals(self):
        # spot subset of the full acceptance grid
        for x in (0.1, 0.5, 0.9):
            for z in (0.6, -0.6):
                for b, c in ((1, 4), (2, 2), (4, 1)):
                    r1, r2 = verify_qcalc_identities(x, z, b, c)
                    assert max(r1, r2) < 1e-10, (x, z, b, c)

    def test_validates_arguments(self):
        with pytest.raises(InvalidSpec):
            verify_qcalc_identities(1.2, 0.3, 1, 1)
        with pytest.raises(InvalidSpec):
            verify_qcalc_identities(0.5, 1.0, 1, 1)
        with pytest.raises(InvalidSpec):
            verify_qcalc_identities(0.5, 0.3, 0, 1)
        # integers past the float range, the second past repr()'s digit limit
        for bad in (math.inf, math.nan, 1.5, 10 ** 400, 10 ** 5000):
            with pytest.raises(InvalidSpec):
                verify_qcalc_identities(0.5, 0.3, bad, 1)
            with pytest.raises(InvalidSpec):
                verify_qcalc_identities(0.5, 0.3, 1, bad)
        # a base that underflows to 0: x^c in every product, x^{2c} in the last
        for c in (2000, 600):
            with pytest.raises(InvalidSpec):
                verify_qcalc_identities(0.5, 0.3, 1, c)

    def test_each_product_evaluated_once_per_strategy(self, monkeypatch):
        calls = {"direct": 0, "series": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(qseries, "qproduct_direct",
                            counted("direct", qseries.qproduct_direct))
        monkeypatch.setattr(qseries, "log_multibase_product",
                            counted("series", qseries.log_multibase_product))
        verify_qcalc_identities(0.5, 0.3, 2, 3)
        assert calls == {"direct": 5, "series": 5}


class TestMinusOnePeel:
    def test_grid(self):
        for ix in range(1, 10):
            assert minus_one_peel_residual((ix / 10.0) ** 4) < 1e-10

    @pytest.mark.parametrize("eps", [0.036, 0.035])
    def test_overflow_is_documented(self, eps):
        # at eps = 0.036 the direct (-1; a, a) leaves the double range; at
        # 0.035 already the log series of (-a; a, a) does (ln = 736)
        with pytest.raises(Overflow):
            minus_one_peel_residual(math.exp(-eps))

    def test_validates_argument(self):
        with pytest.raises(InvalidSpec):
            minus_one_peel_residual(1.0)
        with pytest.raises(InvalidSpec):
            minus_one_peel_residual(0.0)
