"""Arithmetic backends: double-precision default and optional mpmath."""
import math
import sys

import pytest

from xxzfidelity import (DEFAULT_BACKEND, FloatBackend, MPMathBackend,
                         Tolerance, log_multibase_product)


class TestFloatBackend:
    def test_identity_with_math_module(self):
        be = FloatBackend()
        for v in (0.3, 1.0, 2.5):
            assert be.exp(v) == math.exp(v)
            assert be.log(v) == math.log(v)
            assert be.sqrt(v) == math.sqrt(v)
        for v in (-0.3, 1e-18, 0.7):
            assert be.log1p(v) == math.log1p(v)
            assert be.expm1(v) == math.expm1(v)
            assert be.atanh(v) == math.atanh(v)

    def test_real_and_to_float_round_trip(self):
        be = FloatBackend()
        assert be.real(3) == 3.0
        assert isinstance(be.real(3), float)
        assert be.to_float(be.real(0.25)) == 0.25

    def test_metadata(self):
        assert DEFAULT_BACKEND.name == "float64"
        assert DEFAULT_BACKEND.eps == sys.float_info.epsilon
        assert "float64" in repr(DEFAULT_BACKEND)


class TestMPMathBackend:
    @pytest.fixture()
    def backend(self):
        pytest.importorskip("mpmath")
        return MPMathBackend(dps=30)

    def test_metadata(self, backend):
        assert backend.eps == pytest.approx(1e-29, rel=1e-6)
        assert backend.name == "mpmath-dps30"

    def test_carries_extra_digits(self, backend):
        # atanh(0.6) to 30 digits differs from the double beyond 1e-16
        hi = backend.atanh(backend.real("0.6"))
        assert abs(float(hi) - math.atanh(0.6)) < 1e-15
        assert backend.to_float(hi - backend.real(math.atanh(0.6))) != 0.0

    def test_elementary_values(self, backend):
        assert backend.to_float(backend.exp(backend.real(1))) == pytest.approx(
            math.e, rel=1e-15)
        assert backend.to_float(backend.log1p(backend.real("1e-25"))) == \
            pytest.approx(1e-25, rel=1e-4)
        assert backend.to_float(backend.sqrt(backend.real(2))) == pytest.approx(
            math.sqrt(2.0), rel=1e-15)

    def test_instances_with_different_dps_coexist(self):
        pytest.importorskip("mpmath")
        coarse = MPMathBackend(dps=15)
        fine = MPMathBackend(dps=40)
        v = fine.log(fine.real(2))
        w = coarse.log(coarse.real(2))
        assert float(v) == pytest.approx(float(w), rel=1e-14)
        assert fine.eps < coarse.eps

    def test_kernel_agreement_across_backends(self, backend):
        tol = Tolerance(rel_tol=1e-13)
        for z, bases in ((0.4, (0.3,)), (-0.6, (0.5, 0.25))):
            lo = log_multibase_product(z, bases, tol, DEFAULT_BACKEND)
            hi = log_multibase_product(backend.real(z),
                                       tuple(backend.real(b) for b in bases),
                                       tol, backend)
            assert lo == pytest.approx(backend.to_float(hi), rel=1e-12)
