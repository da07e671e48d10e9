"""Property sweep: every public call returns finite values or raises an
XXZFidelityError, never a bare ValueError, OverflowError or
ZeroDivisionError.

The strategies cover each documented domain, its edges (0, 1, subnormals,
the last doubles below 1) and arbitrary floats beyond it, nan and inf
included.  A term cap of 20 000 keeps each property under a second; near
x = 1 it turns slow products into NonConvergent, which is a documented
outcome.
"""
import math

from hypothesis import given, settings, strategies as st

from xxzfidelity import (ModelPoint, Pinning, QProductSpec, SpinChainSpec,
                         Tolerance, XXZFidelityError, g_decomposition_residual,
                         g_product, log_multibase_product,
                         minus_one_peel_residual, moduli, qproduct_direct,
                         short_theta_identity_residual,
                         verify_qcalc_identities)

TOL = Tolerance(max_terms=20_000)
SWEEP = settings(max_examples=200, deadline=None, derandomize=True)

ANY = st.floats()
# x = e^{-eps} from 1.0 (eps < 1.1e-16) through the subnormals (eps > 708)
# to 0.0 (eps > 745), with eps uniform or log-uniform
EPS = st.floats(0.0, 800.0) | st.floats(-40.0, 6.7).map(math.exp)
NOME = EPS.map(lambda eps: math.exp(-eps))
UNIT = st.floats(0.0, 1.0) | NOME | ANY
SIGNED_UNIT = UNIT | UNIT.map(lambda v: -v)
BASES = st.lists(UNIT, max_size=3)
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
@given(z=SIGNED_UNIT, bases=MANY_BASES)
def test_log_multibase_product(z, bases):
    _finite_or_documented(lambda: log_multibase_product(z, bases, TOL))


@SWEEP
@given(z=SIGNED_UNIT, bases=BASES)
def test_qproduct_direct(z, bases):
    _finite_or_documented(
        lambda: qproduct_direct(QProductSpec(z, tuple(bases)), TOL))


@SWEEP
@given(z=UNIT)
def test_moduli(z):
    _finite_or_documented(lambda: tuple(vars(moduli(z, TOL)).values()))


@SWEEP
@given(x=UNIT, minus_one_direct=st.booleans())
def test_g_product(x, minus_one_direct):
    _finite_or_documented(
        lambda: g_product(ModelPoint.from_x(x), TOL, minus_one_direct).ln_g)


@SWEEP
@given(x=UNIT)
def test_g_decomposition_residual(x):
    _finite_or_documented(
        lambda: g_decomposition_residual(ModelPoint.from_x(x), TOL))


@SWEEP
@given(b=st.floats(0.0, 64.0) | ANY, x=UNIT)
def test_short_theta_identity_residual(b, x):
    _finite_or_documented(
        lambda: short_theta_identity_residual(b, ModelPoint.from_x(x), TOL))


@SWEEP
@given(a=UNIT)
def test_minus_one_peel_residual(a):
    _finite_or_documented(lambda: minus_one_peel_residual(a, TOL))


@SWEEP
@given(x=UNIT, z=SIGNED_UNIT,
       b=st.integers(-1, 8) | ANY, c=st.integers(-1, 8) | ANY)
def test_verify_qcalc_identities(x, z, b, c):
    _finite_or_documented(lambda: verify_qcalc_identities(x, z, b, c, TOL))


@SWEEP
@given(L=st.integers(2, 32).map(lambda n: 2 * n) | st.integers() | ANY,
       x=UNIT, split=st.booleans(), pinning=st.sampled_from(Pinning))
def test_spin_chain_spec(L, x, split, pinning):
    def bound():
        spec = SpinChainSpec(L, x, split, pinning)
        return spec.delta, (spec.L + 1) * 0.5 * abs(spec.delta)
    _finite_or_documented(bound)
