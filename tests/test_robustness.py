"""Property sweep: every public call returns finite values or raises an
XXZFidelityError, never a bare ValueError, OverflowError or
ZeroDivisionError.

The strategies cover each documented domain, its edges (0, 1, subnormals,
the last doubles below 1) and arbitrary floats beyond it, nan and inf
included, and integers up to 10^5000 in magnitude (past the digit limit
of str()).

The module runs with both term caps of qseries lowered to 20 000, which
keeps each property to about a second: near x = 1 the caps turn slow
products into NonConvergent, a documented outcome, well before the
defaults would.
"""
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from xxzfidelity import (InvalidSpec, ModelPoint, SpinChainSpec,
                         XXZFidelityError, qseries,
                         bipartite_fidelity_finite, fidelity_modular,
                         fidelity_raw, fidelity_simplified, fit_asymptote,
                         ln_xi_reference, log_multibase_product,
                         minus_ln_f_reference, qproduct_direct)
from xxzfidelity.elliptic import modulus_k, modulus_kprime
from xxzfidelity.fidelity import g_product, short_theta_identity_residual
from xxzfidelity.qseries import minus_one_peel_residual, verify_qcalc_identities
from xxzfidelity.scaling import log_spaced


@pytest.fixture(scope="module", autouse=True)
def small_term_caps():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qseries, "SERIES_MAX_TERMS", 20_000)
        mp.setattr(qseries, "DIRECT_MAX_TERMS", 20_000)
        yield


SWEEP = settings(max_examples=200, deadline=None, derandomize=True)

ANY = st.floats()
# x = e^{-eps} from 1.0 (eps < 1.1e-16) through the subnormals (eps > 708)
# to 0.0 (eps > 745), with eps uniform or log-uniform
EPS = st.floats(0.0, 800.0) | st.floats(-40.0, 6.7).map(math.exp)
NOME = EPS.map(lambda eps: math.exp(-eps))
UNIT = st.floats(0.0, 1.0) | NOME | ANY
OPEN_UNIT = (st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
             | NOME.filter(lambda x: 0.0 < x < 1.0))
SIGNED_UNIT = UNIT | UNIT.map(lambda v: -v)
HUGE_INT = st.integers(-10 ** 5000, 10 ** 5000)
BASES = st.lists(UNIT | HUGE_INT, max_size=3)
# 16 to 32 bases within 1e-12 of 1, where the log series overflows
NEAR_ONE = st.floats(-37.0, -28.0).map(lambda t: 1.0 - math.exp(t))
MANY_BASES = BASES | st.lists(NEAR_ONE, min_size=16, max_size=32)


def _finite_or_documented(call):
    """call() must return a finite float (or a tuple of them) or raise an
    XXZFidelityError; any other exception propagates and fails the test."""
    try:
        value = call()
    except XXZFidelityError:
        return
    values = value if isinstance(value, tuple) else (value,)
    assert all(math.isfinite(v) for v in values), values


@SWEEP
@given(z=SIGNED_UNIT | HUGE_INT, bases=MANY_BASES)
def test_log_multibase_product(z, bases):
    _finite_or_documented(lambda: log_multibase_product(z, bases))


@SWEEP
@given(z=SIGNED_UNIT | HUGE_INT, bases=BASES)
# the zero factor at z = 1 decides before a lattice past the cap is built
@example(z=1.0, bases=[0.999999])
def test_qproduct_direct(z, bases):
    _finite_or_documented(lambda: qproduct_direct(z, bases))


@SWEEP
@given(z=UNIT | HUGE_INT)
def test_moduli(z):
    _finite_or_documented(
        lambda: (modulus_k(z), modulus_kprime(z)))


@SWEEP
@given(x=UNIT | HUGE_INT)
def test_g_product(x):
    _finite_or_documented(lambda: g_product(ModelPoint.from_x(x)))


@SWEEP
@given(x=UNIT | HUGE_INT, eps=EPS | ANY | HUGE_INT)
def test_model_point(x, eps):
    _finite_or_documented(lambda: ModelPoint.from_eps(eps).x)
    _finite_or_documented(lambda: ModelPoint(x, eps).eps)


@SWEEP
@given(eps=EPS | ANY | HUGE_INT | st.floats(0.0, 1e-300))
def test_reference_asymptotes(eps):
    _finite_or_documented(
        lambda: (ln_xi_reference(eps), minus_ln_f_reference(eps)))


@SWEEP
@given(lo=EPS | ANY | HUGE_INT, hi=EPS | ANY | HUGE_INT,
       count=st.integers(1, 4) | HUGE_INT)
def test_log_spaced(lo, hi, count):
    _finite_or_documented(lambda: tuple(log_spaced(lo, hi, count)))


@SWEEP
@given(samples=st.lists(st.tuples(EPS | ANY | HUGE_INT, ANY | HUGE_INT),
                        max_size=5))
@example(samples=[(1e-3,), (2e-3,), (3e-3,)])
@example(samples=[(1e-3, 1.0, 0.0), (2e-3, 2.0, 0.0), (3e-3, 3.0, 0.0)])
def test_fit_asymptote(samples):
    def coefficients():
        fit = fit_asymptote(samples)
        return fit.A, fit.B, fit.C, fit.max_residual
    _finite_or_documented(coefficients)


@SWEEP
@given(x=OPEN_UNIT,
       route=st.sampled_from([fidelity_raw, fidelity_simplified,
                              fidelity_modular]))
def test_fidelity_routes(x, route):
    def ln_f_and_error():
        result = route(ModelPoint.from_x(x))
        return result.ln_f, result.est_rel_error
    _finite_or_documented(ln_f_and_error)


@SWEEP
@given(b=st.floats(0.0, 64.0) | ANY | HUGE_INT, x=UNIT)
def test_short_theta_identity_residual(b, x):
    _finite_or_documented(
        lambda: short_theta_identity_residual(b, ModelPoint.from_x(x)))


@SWEEP
@given(a=UNIT)
def test_minus_one_peel_residual(a):
    _finite_or_documented(lambda: minus_one_peel_residual(a))


@SWEEP
@given(x=UNIT | HUGE_INT, z=SIGNED_UNIT | HUGE_INT,
       b=st.integers(-1, 8) | ANY, c=st.integers(-1, 8) | ANY)
def test_verify_qcalc_identities(x, z, b, c):
    _finite_or_documented(lambda: verify_qcalc_identities(x, z, b, c))


@SWEEP
@given(L=(st.integers(2, 32).map(lambda n: 2 * n) | st.integers() | ANY
          | HUGE_INT),
       x=UNIT | HUGE_INT)
def test_spin_chain_spec(L, x):
    def bound():
        spec = SpinChainSpec(L, x)
        return spec.delta, (spec.L + 1) * 0.5 * abs(spec.delta)
    _finite_or_documented(bound)


@SWEEP
@given(L=st.sampled_from([4, 6, 8, 10, 12]), x=OPEN_UNIT)
def test_bipartite_fidelity_finite(L, x):
    # the one documented refusal: the diagonal of H overflows (x ~ 1e-308)
    try:
        f_L = bipartite_fidelity_finite(L, x)
    except InvalidSpec:
        return
    assert 0.0 <= f_L <= 1.0, f_L
