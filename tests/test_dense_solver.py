"""Tests for the DenseSolver facade (SPIDO role)."""

import numpy as np
import pytest

from repro.dense import DenseSolver
from repro.memory import MemoryTracker
from repro.utils.errors import ConfigurationError


@pytest.fixture()
def spd(rng):
    a = rng.standard_normal((60, 60))
    return a @ a.T + 60 * np.eye(60)


@pytest.fixture()
def nonsym(rng):
    return rng.standard_normal((60, 60)) + 6 * np.eye(60)


class TestFactorizeDispatch:
    def test_auto_picks_ldlt_for_symmetric(self, spd):
        fact = DenseSolver().factorize(spd)
        assert fact.method == "ldlt"
        fact.free()

    def test_auto_picks_lu_for_nonsymmetric(self, nonsym):
        fact = DenseSolver().factorize(nonsym)
        assert fact.method == "lu"
        fact.free()

    def test_symmetric_hint_skips_probe(self, nonsym):
        # the caller's structural knowledge wins over probing
        fact = DenseSolver().factorize(nonsym + nonsym.T, symmetric=True)
        assert fact.method == "ldlt"
        fact.free()

    def test_explicit_cholesky(self, spd, rng):
        fact = DenseSolver(method="cholesky").factorize(spd)
        assert fact.method == "cholesky"
        b = rng.standard_normal(60)
        np.testing.assert_allclose(spd @ fact.solve(b), b, rtol=1e-8)
        fact.free()

    def test_invalid_method_rejected(self):
        with pytest.raises(ConfigurationError):
            DenseSolver(method="qr")

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ConfigurationError):
            DenseSolver(block_size=0)


class TestSolveAndMemory:
    def test_solve_accuracy_all_methods(self, spd, nonsym, rng):
        b = rng.standard_normal((60, 2))
        for a, sym in [(spd, True), (nonsym, False)]:
            fact = DenseSolver(block_size=16).factorize(a, symmetric=sym)
            np.testing.assert_allclose(a @ fact.solve(b), b, rtol=1e-8)
            fact.free()

    def test_transpose_solve_lu_only(self, nonsym, spd, rng):
        b = rng.standard_normal(60)
        fact = DenseSolver().factorize(nonsym, symmetric=False)
        np.testing.assert_allclose(nonsym.T @ fact.solve(b, trans=1), b,
                                   rtol=1e-8)
        fact.free()
        fact = DenseSolver().factorize(spd, symmetric=True)
        with pytest.raises(ConfigurationError):
            fact.solve(b, trans=1)
        fact.free()

    @pytest.mark.parametrize("method,trans", [("lu", 0), ("lu", 1),
                                              ("ldlt", 0), ("cholesky", 0)])
    @pytest.mark.parametrize("shape", [(70, 2), (50, 2), (70,), (50,)])
    def test_wrong_sized_rhs_rejected(self, spd, method, trans, shape):
        # too many rows must not be silently dropped by the pivot gather
        fact = DenseSolver(method=method).factorize(spd)
        with pytest.raises(ValueError, match="expected 60"):
            fact.solve(np.zeros(shape), trans=trans)
        fact.free()

    def test_memory_tracked_and_freed(self, spd):
        t = MemoryTracker()
        fact = DenseSolver(tracker=t).factorize(spd, symmetric=True)
        assert t.category_in_use("dense_factor") == fact.factor_bytes > 0
        fact.free()
        t.assert_all_freed()

    def test_solve_after_free_raises(self, spd):
        fact = DenseSolver().factorize(spd, symmetric=True)
        fact.free()
        with pytest.raises(RuntimeError):
            fact.solve(np.zeros(60))

    def test_double_free_is_safe(self, spd):
        t = MemoryTracker()
        fact = DenseSolver(tracker=t).factorize(spd, symmetric=True)
        fact.free()
        fact.free()
        t.assert_all_freed()

    def test_ldlt_uses_less_factor_memory_than_lu(self, spd):
        f_ldlt = DenseSolver().factorize(spd, symmetric=True)
        f_lu = DenseSolver(method="lu").factorize(spd)
        # LDLᵀ stores one triangle (plus d); LU stores both
        assert f_ldlt.factor_bytes <= f_lu.factor_bytes + 8 * 60
        f_ldlt.free()
        f_lu.free()

    def test_input_matrix_not_modified(self, spd):
        a0 = spd.copy()
        fact = DenseSolver().factorize(spd, symmetric=True)
        np.testing.assert_array_equal(spd, a0)
        fact.free()
