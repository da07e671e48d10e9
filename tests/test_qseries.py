"""Multi-base product evaluation: both strategies, the target, identities."""
import hashlib
import math
import sys
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from xxzfidelity import (InvalidSpec, NonConvergent, Overflow, identity_report,
                         log_multibase_product, qproduct_direct)
from xxzfidelity import qseries
from xxzfidelity.qseries import (REL_TOL, minus_one_peel_residual,
                                 verify_qcalc_identities)


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

    def test_single_base_matches_factor_expansion(self, monkeypatch):
        # ln prod (1 - z a^n) summed factor by factor, tiny a so 3 factors do
        z, a = 0.3, 1e-5
        expected = sum(math.log1p(-z * a ** n) for n in range(25))
        # the target REL_TOL is met, and a tighter one is met more closely
        got = log_multibase_product(z, (a,))
        assert got == pytest.approx(expected, rel=REL_TOL, abs=0)
        monkeypatch.setattr(qseries, "REL_TOL", 3e-15)
        got = log_multibase_product(z, (a,))
        assert got == pytest.approx(expected, rel=1e-13, abs=0)

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

    def test_tolerates_underflowed_base_zero(self, monkeypatch):
        # (z; 0)_inf has the single factor (1 - z)
        got = log_multibase_product(0.25, (0.0,))
        assert got == pytest.approx(math.log1p(-0.25), rel=REL_TOL, abs=0)
        monkeypatch.setattr(qseries, "REL_TOL", 3e-15)
        got = log_multibase_product(0.25, (0.0,))
        assert got == pytest.approx(math.log1p(-0.25), rel=1e-14, abs=0)

    @pytest.mark.parametrize("bases", [(0.5,), (0.5, 0.5), (0.5, 0.5, 0.5)],
                             ids=["one", "two", "three"])
    def test_nonconvergent_when_capped(self, monkeypatch, bases):
        # each arity's loop reads the cap at call time and raises the same
        monkeypatch.setattr(qseries, "SERIES_MAX_TERMS", 3)
        message = (f"log series for (z=0.9; {bases}) did not reach "
                   f"rel_tol={REL_TOL} within 3 terms")
        with pytest.raises(NonConvergent) as raised:
            log_multibase_product(0.9, list(bases))
        assert str(raised.value) == message


def _mp_log_series(z, bases):
    """40-digit ln (z; bases)_inf by the plain log series, summed until its
    geometric tail bound drops below 1e-36 of the sum."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        z = mpmath.mpf(z)
        bases = [mpmath.mpf(b) for b in bases]
        powers = [mpmath.mpf(1)] * len(bases)
        tail_factor = abs(z) / (1 - abs(z))
        acc, zp, m = mpmath.mpf(0), mpmath.mpf(1), 0
        while True:
            m += 1
            zp *= z
            denom = mpmath.mpf(1)
            for i, b in enumerate(bases):
                powers[i] *= b
                denom *= 1 - powers[i]
            term = zp / (m * denom)
            acc -= term
            if abs(term) * tail_factor < mpmath.mpf(10) ** -36 * abs(acc):
                return acc


#: (z, bases, lattice factors the series takes one by one); the box is
#: never empty: at least the origin is taken
PEEL_BOXES = [
    (qseries._PEEL_RATE, (0.5,), 1),                        # at the threshold
    (math.nextafter(qseries._PEEL_RATE, 1.0), (0.5,), 1),   # just above it
    (0.95, (0.944,), 36),             # 0.944^36 0.95 <= 0.12 < 0.944^35 0.95
    (-0.9, (0.7, 0.7), 36),           # 6 x 6
    (0.9, (0.72, 0.72), 1),           # 7 x 7 would pass _PEEL_BOX
    (0.5, (1.0 - 2.0 ** -53,), 1),    # a base near 1
]


def _box_size(z, bases):
    """Factors in the box n_i < k_i, k_i the least with |z| a_i^{k_i} <=
    qseries._PEEL_RATE (k_i = 1 for a base of 0.0)."""
    size = 1
    for b in bases:
        size *= (math.ceil(math.log(qseries._PEEL_RATE / abs(z)) / math.log(b))
                 if b > 0.0 else 1)
    return size


#: (z, bases) above the peel threshold whose box holds at most _PEEL_BOX
#: factors, from a fixed grid: 312 of its 320 calls
KEPT_BITS = [(z, bases)
             for z in (s * v for v in (0.121, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95)
                       for s in (1.0, -1.0))
             for bases in ([(a,) for a in (0.0, 0.1, 0.4, 0.7, 0.85, 0.944)]
                           + [(a, b) for a in (0.0, 0.2, 0.5, 0.7)
                              for b in (0.3, 0.6, 0.8)]
                           + [(0.3, 0.4, 0.5), (0.1, 0.2, 0.3, 0.4)])
             if _box_size(z, bases) <= qseries._PEEL_BOX]


class TestPeeledSeries:
    def test_kept_bits(self):
        # a call that peels keeps its box and the order of every sum, so
        # its bits are frozen
        assert len(KEPT_BITS) == 312
        values = [log_multibase_product(z, bases).hex() for z, bases in KEPT_BITS]
        assert hashlib.sha256("\n".join(values).encode()).hexdigest() == (
            "32232ded767f95a677f8784682afd35b342c6d0c2e0ff289a71404966ceaf24d")

    @pytest.mark.parametrize("z, bases, factors", PEEL_BOXES)
    def test_box_size(self, monkeypatch, z, bases, factors):
        assert qseries._PEEL_BOX == 36
        calls = []

        def log1p(v):
            calls.append(v)
            return math.log1p(v)

        counting = SimpleNamespace(**{name: getattr(math, name)
                                      for name in dir(math)
                                      if not name.startswith("_")})
        counting.log1p = log1p
        monkeypatch.setattr(qseries, "math", counting)
        log_multibase_product(z, bases)
        assert len(calls) == factors

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        z=st.floats(min_value=-0.95, max_value=0.95).filter(lambda v: abs(v) > 1e-12),
        bases=st.lists(st.floats(min_value=0.0, max_value=0.9, exclude_min=True),
                       min_size=1, max_size=2),
    )
    @example(z=qseries._PEEL_RATE, bases=[0.5])
    @example(z=0.5, bases=[0.0])
    @example(z=-0.3, bases=[0.0, 0.6])
    @example(z=0.1, bases=[0.5, 0.9])
    @example(z=-1e-3, bases=[0.3, 0.85])
    @example(z=math.nextafter(qseries._PEEL_RATE, 1.0), bases=[0.5])
    @example(z=-math.nextafter(qseries._PEEL_RATE, 1.0), bases=[0.5, 0.5])
    @example(z=0.95, bases=[0.944])
    @example(z=-0.9, bases=[0.7, 0.7])
    @example(z=0.9, bases=[0.72, 0.72])
    @example(z=0.95, bases=[0.9, 0.9])
    @example(z=0.9453125, bases=[0.75, 0.75])  # 8 x 8: the origin alone
    def test_meets_the_target_across_the_peel(self, z, bases):
        # the tail bound must stay honest on both sides of the threshold and
        # of the box bound, at the default target and at a far tighter one
        ref = _mp_log_series(z, bases)
        for rel_tol in (REL_TOL, 1e-14):
            with mock.patch.object(qseries, "REL_TOL", rel_tol):
                got = log_multibase_product(z, bases)
            assert abs(got - ref) <= rel_tol * abs(ref), rel_tol


def _list_loop_log_series(z, bases):
    """Reference: log_multibase_product with one term loop for every number
    of bases, each base's powers kept in lists and walked by index; the
    loop of every arity must return its bits and raise where it raises."""
    az = abs(z)
    if z == 0.0:
        return 0.0

    n = len(bases)
    acc = math.log1p(-z)  # the origin, box[0]
    ys = bases
    if az > qseries._PEEL_RATE:
        box, ys = qseries._peel_box(az, bases)
        for w in box[1:]:
            acc = acc + math.log1p(-z * w)

    rel_tol = qseries.REL_TOL
    rate = az * max(ys)
    tail_factor = n * rate / (1.0 - rate)

    zp = 1.0
    powers = [1.0] * n
    y_powers = [1.0] * n

    for m in range(1, qseries.SERIES_MAX_TERMS + 1):
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
        bound = abs(term) * tail_factor
        if not bound > rel_tol * abs(acc):  # an inf or nan sum stops here too
            break
    else:
        raise NonConvergent(
            f"log series for (z={z}; {tuple(bases)}) did not reach rel_tol={rel_tol} "
            f"within {qseries.SERIES_MAX_TERMS} terms")
    if not math.isfinite(acc):
        raise Overflow(f"log series for (z={z}; {tuple(bases)}) leaves the float range")
    return float(acc)


def _outcome(series, z, bases):
    """The bits a series returns, or the exception it raises."""
    try:
        return series(z, bases).hex()
    except (NonConvergent, Overflow) as exc:
        return type(exc), str(exc)


#: bases in [0, 1): 0.0, near 1, and in between
ANY_BASE = st.one_of(st.just(0.0),
                     st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                     st.floats(min_value=0.999, max_value=1.0, exclude_max=True))


class TestArityLoops:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        z=st.one_of(
            st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
            st.builds(lambda sign, v: sign * v, st.sampled_from((1.0, -1.0)),
                      st.floats(min_value=qseries._PEEL_RATE, max_value=0.95,
                                exclude_min=True))),
        bases=st.lists(ANY_BASE, min_size=1, max_size=3),
    )
    @example(z=0.95, bases=[0.944])                    # a 36-factor box
    @example(z=-0.9, bases=[0.7, 0.7])                 # 6 x 6
    @example(z=0.9, bases=[0.3, 0.4, 0.5])             # three bases, peeled
    @example(z=-0.5, bases=[0.0])
    @example(z=0.3, bases=[0.0, 0.6])
    @example(z=-0.7, bases=[0.6, 0.0, 0.2])
    @example(z=0.5, bases=[1.0 - 2.0 ** -53])
    @example(z=-0.5, bases=[1.0 - 2.0 ** -53, 1.0 - 2.0 ** -53])
    @example(z=0.999, bases=[0.9999, 0.5])
    @example(z=-1e-300, bases=[0.25, 0.75])
    @example(z=0.05, bases=[0.05, 0.2])    # bits that hang on the order of
    @example(z=0.5, bases=[0.65, 0.35])    # the two bases' E update
    def test_bits_match_the_list_loop(self, z, bases):
        # the one- and two-base loops do the list loop's float operations in
        # its order, so each result keeps its bits, at the default target and
        # a tighter one; the cap keeps a slow series short, and past it both
        # raise the same NonConvergent
        for rel_tol in (REL_TOL, 1e-15):
            with mock.patch.object(qseries, "REL_TOL", rel_tol), \
                    mock.patch.object(qseries, "SERIES_MAX_TERMS", 20_000):
                assert (_outcome(log_multibase_product, z, bases)
                        == _outcome(_list_loop_log_series, z, bases)), rel_tol


class TestDirectProduct:
    def test_zero_z_is_one(self):
        assert qproduct_direct(0.0, (0.5,)) == 1.0

    def test_unit_z_zero_factor(self):
        # z = 1: the n = 0 factor is exactly (1 - 1) = 0
        assert qproduct_direct(1.0, (0.5,)) == 0.0

    @pytest.mark.parametrize("bases", [(0.999999,), (0.5, 0.999999)])
    def test_unit_z_needs_no_lattice(self, monkeypatch, bases):
        # tens of millions of points above the cutoff: the zero factor
        # decides before any of them is counted
        assert qproduct_direct(1.0, bases) == 0.0

        def no_pass(*args):
            raise AssertionError("the lattice was built")

        monkeypatch.setattr(qseries, "_direct_pass", no_pass)
        assert qproduct_direct(1.0, bases) == 0.0
        with pytest.raises(InvalidSpec):
            qproduct_direct(1.0, bases + (0.0,))

    def test_minus_one_leading_factor(self):
        # (-1; a)_inf = 2 (-a; a)_inf: the n = 0 factor is exactly 2
        a = 0.3
        full = qproduct_direct(-1.0, (a,))
        peeled = qproduct_direct(-a, (a,))
        assert full == pytest.approx(2.0 * peeled, rel=3e-12, abs=0)

    def test_agrees_with_series_two_bases(self):
        args = (0.25, (0.0625, 0.0625))
        direct = qproduct_direct(*args)
        series = math.exp(log_multibase_product(*args))
        assert direct == pytest.approx(series, rel=2e-12, abs=0)

    def test_nonconvergent_when_capped(self, monkeypatch):
        monkeypatch.setattr(qseries, "DIRECT_MAX_TERMS", 10)
        with pytest.raises(NonConvergent):
            qproduct_direct(0.5, (0.9, 0.9))

    def test_overflow_is_documented(self):
        # ln (-1; 0.999)_inf is about 820 > ln(DBL_MAX)
        with pytest.raises(Overflow):
            qproduct_direct(-1.0, (0.999,))


def _loop_direct_pass(z, bases, suffix_mass, cutoff, max_terms):
    """Reference: the lattice walked point by point, recursively, with one
    math.log1p per retained factor summed in order.  The omitted masses of
    the pruned subtrees, thousands of terms, are summed exactly by
    math.fsum, so the reference adds no rounding of its own."""
    log_acc = 0.0
    omitted = []
    count = 0
    zero_factor = False
    last = len(bases) - 1

    def rec(i, w):
        nonlocal log_acc, count, zero_factor
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
        omitted.append(wi / (1.0 - b) * suffix_mass[i + 1])

    rec(0, 1.0)
    return log_acc, math.fsum(omitted), zero_factor, count


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
    # 4,851 omitted terms: summed in order they drift 1.1e-14 from their
    # exact sum, which the pass meets to 4.7e-16
    @example(z=0.0, bases=[0.716796875, 0.716796875, 0.05], rel_tol=1e-13,
             slab=1)
    @example(z=1.0, bases=[0.5, 0.3], rel_tol=1e-12, slab=7)
    def test_matches_the_loop(self, z, bases, rel_tol, slab):
        # slabs of 1 and 7 points cut the last direction's runs everywhere
        cutoff = rel_tol / 10.0
        args = (z, bases, _suffix_mass(bases), cutoff)
        expected = _pass_or_none(_loop_direct_pass, *args, 20_000)
        if expected is not None:
            # z = 1 is the only zero factor, and qproduct_direct returns
            # before any pass there
            assert expected[2] == (z == 1.0)
        if z == 1.0:
            assert qproduct_direct(z, bases) == 0.0
            return
        with mock.patch.object(qseries, "_SLAB", slab):
            # an infinite target always sums; rel_tol sums only a pass whose
            # omitted mass is certified
            with mock.patch.object(qseries, "REL_TOL", math.inf):
                summed = _pass_or_none(qseries._direct_pass, *args, 20_000)
            with mock.patch.object(qseries, "REL_TOL", rel_tol):
                planned = _pass_or_none(qseries._direct_pass, *args, 20_000)
        assert (summed is None) == (expected is None)
        assert (planned is None) == (expected is None)
        if expected is None:
            return
        log_acc, omitted, count = summed
        assert count == expected[3]
        assert omitted == pytest.approx(expected[1], rel=1e-14, abs=0)
        assert log_acc == pytest.approx(expected[0], rel=0.0, abs=1e-11)
        assert planned[1:] == (omitted, count)
        certified = abs(z) * omitted / (1.0 - abs(z) * cutoff) <= rel_tol
        assert planned[0] == (log_acc if certified else None)

    def test_uncertified_pass_returns_unsummed(self, monkeypatch):
        # at the first cutoff (0.6; 0.25, 0.25) keeps 253 points and misses
        # its target; the pass returns before any logarithm is taken
        np = pytest.importorskip("numpy")
        z, bases = 0.6, (0.25, 0.25)
        args = (z, bases, _suffix_mass(bases), REL_TOL / 10.0)
        expected = _loop_direct_pass(*args, 10 ** 9)
        summed = []
        log1p = np.log1p
        monkeypatch.setattr(np, "log1p",
                            lambda v: summed.append(np.size(v)) or log1p(v))
        log_acc, omitted, count = qseries._direct_pass(*args, 10 ** 9)
        assert (log_acc, count, summed) == (None, 253, [])
        assert count == expected[3]
        assert omitted == pytest.approx(expected[1], rel=1e-14, abs=0)
        assert abs(z) * omitted / (1.0 - abs(z) * args[3]) > REL_TOL
        # at a target it meets, the same pass sums its lattice once
        monkeypatch.setattr(qseries, "REL_TOL", math.inf)
        assert qseries._direct_pass(*args, 10 ** 9)[2] == 253
        assert summed == [253]

    @pytest.mark.parametrize("bases", [(0.7,), (0.3, 0.6), (0.5, 0.2, 0.4)])
    def test_max_terms_boundary(self, bases):
        args = (0.5, bases, _suffix_mass(bases), 1e-10)
        count = qseries._direct_pass(*args, 10 ** 9)[2]
        assert count == _loop_direct_pass(*args, 10 ** 9)[3]
        # the cap holds whether or not the pass goes on to sum
        for rel_tol in (math.inf, 0.0):
            with mock.patch.object(qseries, "REL_TOL", rel_tol):
                assert qseries._direct_pass(*args, count)[2] == count
                with pytest.raises(NonConvergent):
                    qseries._direct_pass(*args, count - 1)

    @pytest.mark.parametrize("bases", [(1.0 - 1e-12,), (0.5, 1.0 - 1e-12)])
    def test_cap_checked_before_allocating(self, bases):
        # about 3e13 points per prefix: only the estimate may see them
        tracemalloc.start()
        try:
            with pytest.raises(NonConvergent):
                qproduct_direct(0.5, bases)
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
        # direct certifies REL_TOL on the value; the series certifies
        # REL_TOL on the log, i.e. REL_TOL * |log| on the value
        budget = (2.0 + 2.0 * abs(log_value)) * REL_TOL
        assert direct == pytest.approx(series, rel=budget, abs=0)

    @settings(max_examples=30, deadline=None)
    @given(z=st.floats(min_value=-0.9, max_value=0.9).filter(lambda v: abs(v) > 1e-6),
           base=st.floats(min_value=0.05, max_value=0.9))
    def test_monotone_truncation(self, z, base):
        # tightening REL_TOL moves the result by less than the looser target
        def at(rel_tol):
            with mock.patch.object(qseries, "REL_TOL", rel_tol):
                return (qproduct_direct(z, (base,)),
                        log_multibase_product(z, (base,)))

        loose, loose_log = at(1e-8)
        tight, tight_log = at(1e-13)
        assert abs(loose - tight) <= 1e-8 * abs(tight)
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


class TestIdentityReportProducts:
    def test_each_distinct_product_evaluated_once(self, monkeypatch):
        # 12 points of 5 products; at each (x, b, c) the pair z = +-0.6
        # shares (z; x^b, x^c), (-z; x^b, x^c) and (z^2; x^2b, x^2c)
        fidelity_module = sys.modules["xxzfidelity.fidelity"]
        calls = {"direct": 0, "series": 0}
        in_peel = []

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += not in_peel
                return fn(*args)
            return wrapper

        def peel(a):
            in_peel.append(a)
            try:
                return minus_one_peel_residual(a)
            finally:
                in_peel.pop()

        monkeypatch.setattr(qseries, "qproduct_direct",
                            counted("direct", qseries.qproduct_direct))
        monkeypatch.setattr(qseries, "log_multibase_product",
                            counted("series", qseries.log_multibase_product))
        monkeypatch.setattr(fidelity_module, "minus_one_peel_residual", peel)
        identity_report()
        assert calls == {"direct": 42, "series": 42}

    def test_each_direct_product_sums_one_lattice(self, monkeypatch):
        # a pass whose cutoff fails is planned, not summed: only the
        # certified lattice reaches log1p, once
        np = pytest.importorskip("numpy")
        summed, lattices, report = [], [], []
        log1p, direct_pass = np.log1p, qseries._direct_pass
        direct = qseries.qproduct_direct

        def counting_pass(*args):
            result = direct_pass(*args)
            lattices.append(result[-1])
            return result

        def per_call(z, bases):
            summed.clear()
            lattices.clear()
            value = direct(z, bases)
            report.append(((z, bases), sum(summed), lattices[-1]))
            return value

        monkeypatch.setattr(np, "log1p",
                            lambda v: summed.append(np.size(v)) or log1p(v))
        monkeypatch.setattr(qseries, "_direct_pass", counting_pass)
        monkeypatch.setattr(qseries, "qproduct_direct", per_call)
        identity_report()
        for spec, points, lattice in report:
            assert points == lattice, spec
        assert ((0.6, (0.25, 0.25)), 276, 276) in report
        assert len(report) == 47  # 42 qcalc products and 5 minus-one peels

    def test_shared_products_change_no_row(self):
        # the grid of identity_report's qcalc rows
        qcalc = [verify_qcalc_identities(x, z, b, c)
                 for x in (0.1, 0.5, 0.9) for z in (0.6, -0.6)
                 for b, c in ((1, 2), (2, 3))]
        rows = dict(identity_report())
        assert rows["qcalc_r1"] == max(r1 for r1, _ in qcalc)
        assert rows["qcalc_r2"] == max(r2 for _, r2 in qcalc)


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
