"""Tests for the DenseSolver facade (SPIDO role): it factors the dense
Schur block in its own buffer."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning

from repro.core import CoupledFactorization, SolverConfig
from repro.core.schur_tools import DenseSchurContainer
from repro.dense import DenseSolver, blocked_ldlt
from repro.fembem.bem import KernelMatrix
from repro.memory import MemoryTracker
from repro.utils.errors import SingularMatrixError

#: n > 2 × the LDLᵀ panel width, so the blocked code runs three panels
N = 300


def _nonsym(rng, n, dtype):
    a = rng.standard_normal((n, n))
    if dtype is np.complex128:
        a = a + 1j * rng.standard_normal((n, n))
    return a + 0.05 * n * np.eye(n)


def _sym(rng, n, dtype):
    a = _nonsym(rng, n, dtype)
    return a + a.T  # complex symmetric, not Hermitian, when complex


@pytest.fixture()
def spd(rng):
    a = rng.standard_normal((60, 60))
    return a @ a.T + 60 * np.eye(60)


@pytest.fixture()
def nonsym(rng):
    return rng.standard_normal((60, 60)) + 6 * np.eye(60)


class TestSolveAndMemory:
    def test_solve_accuracy_all_methods(self, spd, nonsym, rng):
        b = rng.standard_normal((60, 2))
        for a, sym in [(spd, True), (nonsym, False)]:
            fact = DenseSolver().factorize(a.copy(), symmetric=sym)
            np.testing.assert_allclose(a @ fact.solve(b), b, rtol=1e-8)
            fact.free()

    @pytest.mark.parametrize("method", ["lu", "ldlt"])
    @pytest.mark.parametrize("shape", [(70, 2), (50, 2), (70,), (50,)])
    def test_wrong_sized_rhs_rejected(self, spd, method, shape):
        # too many rows must not be silently dropped, nor be getrs's error
        fact = DenseSolver().factorize(spd, symmetric=method == "ldlt")
        with pytest.raises(ValueError, match="expected 60"):
            fact.solve(np.zeros(shape))
        fact.free()

    def test_memory_tracked_and_freed(self, pipe_small, aircraft_small):
        """The dense container's ``schur_store`` charge of ``S`` is the
        factor's too: factoring (LDLᵀ, LU) charges nothing more."""
        for problem in (pipe_small, aircraft_small):
            tracker = MemoryTracker()
            c = DenseSchurContainer(problem, SolverConfig(), tracker)
            s = c.s
            c.factorize(tracker)
            assert c.s is s and tracker.categories == {
                "schur_store": problem.n_bem ** 2 * s.itemsize}
            assert tracker.peak == tracker.in_use
            c.free()
            tracker.assert_all_freed()

    def test_solve_after_free_raises(self, spd):
        fact = DenseSolver().factorize(spd, symmetric=True)
        fact.free()
        with pytest.raises(RuntimeError):
            fact.solve(np.zeros(60))

    def test_double_free_is_safe(self, spd):
        fact = DenseSolver().factorize(spd, symmetric=True)
        fact.free()
        fact.free()
        with pytest.raises(RuntimeError):
            fact.solve(np.zeros(60))


class TestInPlace:
    """The factors are written into the matrix handed over; no second
    ``n²`` buffer exists."""

    @pytest.mark.parametrize("symmetric", [False, True],
                             ids=["lu", "ldlt"])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_backward_error(self, rng, symmetric, dtype):
        a = (_sym if symmetric else _nonsym)(rng, N, dtype)
        b = rng.standard_normal((N, 3)).astype(dtype)
        fact = DenseSolver().factorize(a.copy(), symmetric=symmetric)
        x = fact.solve(b)
        fact.free()
        r, inf = a @ x - b, np.inf
        eta = np.linalg.norm(r, inf) / (
            np.linalg.norm(a, inf) * np.linalg.norm(x, inf)
            + np.linalg.norm(b, inf))
        assert eta <= 10 * N * np.finfo(np.float64).eps

    @pytest.mark.parametrize("symmetric", [False, True],
                             ids=["lu", "ldlt"])
    def test_factor_shares_memory_with_s(self, rng, symmetric):
        s = (_sym if symmetric else _nonsym)(rng, N, np.complex128)
        fact = DenseSolver().factorize(s, symmetric=symmetric)
        factor = fact._data[0]
        assert np.shares_memory(factor, s) and factor.shape == s.shape
        fact.free()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_ldlt_overwrite_equals_the_copy(self, rng, dtype):
        a = _sym(rng, N, dtype)
        l_copy, d_copy = blocked_ldlt(a)
        s = a.copy()
        s[np.triu_indices(N, 1)] = 1e9  # never read, zeroed in place
        l, d = blocked_ldlt(s, overwrite=True)
        assert l is s
        np.testing.assert_array_equal(l, l_copy)
        np.testing.assert_array_equal(d, d_copy)


class TestSingular:
    @pytest.mark.parametrize("symmetric", [False, True],
                             ids=["lu", "ldlt"])
    def test_exactly_singular_raises_singular_matrix_error(self, rng,
                                                           symmetric):
        s = (_sym if symmetric else _nonsym)(rng, N, np.complex128)
        s[:, 7] = 0.0
        s[7, :] = 0.0
        with warnings.catch_warnings():
            # a LinAlgWarning would surface as itself, not as the error
            warnings.simplefilter("error", LinAlgWarning)
            with pytest.raises(SingularMatrixError):
                DenseSolver().factorize(s, symmetric=symmetric)

    @pytest.mark.parametrize("case,algorithm", [
        ("aircraft_small", "multi_solve"),
        ("aircraft_small", "multi_factorization"),
        ("pipe_small", "multi_solve"),
    ])
    def test_failed_factorization_leaves_the_tracker_balanced(
            self, request, monkeypatch, case, algorithm):
        """Surface unknown 0 decoupled (its ``A_sv`` row zero) and its
        ``A_ss`` row and column zero: ``S``'s row and column 0 are exact
        zeros, and the dense factorization of ``S`` is what fails."""
        problem = request.getfixturevalue(case)
        a_sv = problem.a_sv.tolil()
        a_sv[0, :] = 0
        problem = dataclasses.replace(problem, a_sv=a_sv.tocsr())
        to_dense = KernelMatrix.to_dense

        def singular_to_dense(op, *args, **kwargs):
            out = to_dense(op, *args, **kwargs)
            out[0, :] = out[:, 0] = 0
            return out

        monkeypatch.setattr(KernelMatrix, "to_dense", singular_to_dense)
        created = []
        init = MemoryTracker.__init__

        def recording_init(tracker, *args, **kwargs):
            init(tracker, *args, **kwargs)
            created.append(tracker)

        monkeypatch.setattr(MemoryTracker, "__init__", recording_init)
        with pytest.raises(SingularMatrixError):
            CoupledFactorization(problem, algorithm,
                                 SolverConfig(dense_backend="spido", n_c=64))
        assert created and not any(t.in_use for t in created)
