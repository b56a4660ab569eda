"""Tests for the in-place LU, the blocked LDLᵀ factorization and the LU
pivot conversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import get_lapack_funcs
from scipy.linalg import lu_factor as scipy_lu_factor

from repro.dense.lu import lu_factor_inplace, lu_solve_transposed, piv_to_perm
from repro.dense.ldlt import (
    _ldlt_columns,
    _ldlt_kernel,
    blocked_ldlt,
    ldlt_solve,
)
from repro.utils.errors import ConfigurationError, SingularMatrixError


def _well_conditioned(rng, n, dtype=np.float64):
    a = rng.standard_normal((n, n)).astype(dtype)
    if np.issubdtype(dtype, np.complexfloating):
        a = a + 1j * rng.standard_normal((n, n))
    a += n * 0.05 * np.eye(n)
    return a


def _lu_solve(a, b):
    """Solve ``a x = b`` by the in-place LU of a copy of ``a``."""
    return lu_solve_transposed(*lu_factor_inplace(a.copy()), b)


class TestBlockedLU:
    """LAPACK's ``getrf`` is a blocked LU; :func:`lu_factor_inplace` runs
    it on ``aᵀ`` in ``a``'s own buffer and :func:`lu_solve_transposed`
    solves ``a x = b`` from those factors."""

    @pytest.mark.parametrize("n,nrhs", [(1, 1), (7, 3), (50, 8), (128, 128),
                                        (257, 64)])
    def test_solve_accuracy(self, rng, n, nrhs):
        a = _well_conditioned(rng, n)
        b = rng.standard_normal((n, nrhs))
        np.testing.assert_allclose(a @ _lu_solve(a, b), b, rtol=1e-8,
                                   atol=1e-8)

    def test_matches_lapack_factors(self, rng):
        """The factors and pivots are LAPACK's of ``aᵀ``, bit for bit."""
        a = _well_conditioned(rng, 300, np.complex128)
        lu_ref, piv_ref = scipy_lu_factor(np.asfortranarray(a.T))
        lu_t, piv = lu_factor_inplace(a.copy())
        np.testing.assert_array_equal(lu_t, lu_ref)
        np.testing.assert_array_equal(piv, piv_ref)

    def test_transpose_solve(self, rng):
        """Factoring the buffer of ``aᵀ`` solves with ``aᵀ``."""
        a = _well_conditioned(rng, 90)
        b = rng.standard_normal(90)
        np.testing.assert_allclose(a.T @ _lu_solve(a.T, b), b, rtol=1e-8)

    def test_pivoting_handles_zero_leading_entry(self, rng):
        a = _well_conditioned(rng, 30)
        a[0, 0] = 0.0
        b = rng.standard_normal(30)
        np.testing.assert_allclose(a @ _lu_solve(a, b), b, rtol=1e-8)

    def test_complex_nonsymmetric(self, rng):
        a = _well_conditioned(rng, 70, np.complex128)
        b = rng.standard_normal((70, 2)) + 1j * rng.standard_normal((70, 2))
        np.testing.assert_allclose(a @ _lu_solve(a, b), b, rtol=1e-8)

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            lu_factor_inplace(np.zeros((5, 5)))

    def test_non_square_rejected(self):
        with pytest.raises(ConfigurationError):
            lu_factor_inplace(np.zeros((3, 4)))

    def test_overwrite_reuses_buffer(self, rng):
        a = _well_conditioned(rng, 20)
        lu_t, _ = lu_factor_inplace(a)
        assert np.shares_memory(lu_t, a)
        np.testing.assert_array_equal(lu_t.T, a)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 48), seed=st.integers(0, 500))
    def test_property_plu_reconstructs(self, n, seed):
        rng = np.random.default_rng(seed)
        a = _well_conditioned(rng, n)
        np.testing.assert_allclose(a @ _lu_solve(a, np.eye(n)), np.eye(n),
                                   atol=1e-6)


class TestPivotsAsPermutation:
    @pytest.mark.parametrize("n", [1, 9, 64])
    def test_one_gather_replays_the_lapack_swaps(self, rng, n):
        _, piv = scipy_lu_factor(rng.standard_normal((n, n)))
        perm = piv_to_perm(piv)
        assert perm.dtype == piv.dtype and perm.nbytes == piv.nbytes
        x = rng.standard_normal((n, 2))
        swapped = x.copy()
        for i, j in enumerate(piv):
            swapped[[i, j]] = swapped[[j, i]]
        np.testing.assert_array_equal(x[perm], swapped)
        undone = np.empty_like(x)
        undone[perm] = swapped          # the inverse is one scatter
        np.testing.assert_array_equal(undone, x)

    def test_transposed_and_complex_solves(self, rng):
        """LAPACK's pivots of a complex ``a`` and of its buffer
        transposed: the plain transpose, not the conjugate one."""
        a = _well_conditioned(rng, 70, np.complex128)
        b = rng.standard_normal(70) + 1j * rng.standard_normal(70)
        np.testing.assert_allclose(a @ _lu_solve(a, b), b, atol=1e-9)
        np.testing.assert_allclose(a.T @ _lu_solve(a.T, b), b, atol=1e-9)


class TestBlockedLDLT:
    @pytest.mark.parametrize("n,bs", [(1, 1), (10, 4), (128, 128), (200, 64)])
    def test_real_symmetric(self, rng, n, bs):
        a = rng.standard_normal((n, n))
        a = a + a.T + 4 * n * 0.05 * np.eye(n)
        l, d = blocked_ldlt(a, block_size=bs)
        np.testing.assert_allclose((l * d) @ l.T, a, rtol=1e-8, atol=1e-8)

    def test_l_is_unit_lower(self, rng):
        a = rng.standard_normal((30, 30))
        a = a + a.T + 10 * np.eye(30)
        l, _ = blocked_ldlt(a, block_size=8)
        np.testing.assert_allclose(np.diag(l), 1.0)
        assert np.allclose(np.triu(l, 1), 0.0)

    def test_solve(self, rng):
        a = rng.standard_normal((150, 150))
        a = a + a.T + 30 * np.eye(150)
        b = rng.standard_normal((150, 3))
        l, d = blocked_ldlt(a, block_size=48)
        x = ldlt_solve(l, d, b, block_size=48)
        np.testing.assert_allclose(a @ x, b, rtol=1e-8)

    def test_complex_symmetric_not_hermitian(self, rng):
        """LDLᵀ must use the plain transpose (complex symmetric input)."""
        n = 80
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = a + a.T + 20 * np.eye(n)
        assert not np.allclose(a, a.conj().T)  # genuinely non-Hermitian
        l, d = blocked_ldlt(a, block_size=32)
        np.testing.assert_allclose((l * d) @ l.T, a, rtol=1e-8)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = ldlt_solve(l, d, b, block_size=32)
        np.testing.assert_allclose(a @ x, b, rtol=1e-8)

    def test_only_lower_triangle_read(self, rng):
        a = rng.standard_normal((40, 40))
        a = a + a.T + 15 * np.eye(40)
        garbage = a.copy()
        garbage[np.triu_indices(40, 1)] = 1e9
        l1, d1 = blocked_ldlt(a, block_size=16)
        l2, d2 = blocked_ldlt(garbage, block_size=16)
        np.testing.assert_allclose(l1, l2)
        np.testing.assert_allclose(d1, d2)

    def test_zero_pivot_raises(self):
        with pytest.raises(SingularMatrixError):
            blocked_ldlt(np.zeros((4, 4)))


class TestLdltKernel:
    """``_ldlt_kernel`` takes LAPACK's factors only where Bunch–Kaufman
    did not pivot; ``_ldlt_columns`` is the reference it must match."""

    TINY = float(np.finfo(np.float64).tiny) ** 0.5

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_fast_path_matches_the_column_loop(self, rng, dtype):
        n = 96
        a = rng.standard_normal((n, n))
        if dtype is np.complex128:  # complex symmetric, not Hermitian
            a = a + 1j * rng.standard_normal((n, n))
            a = a + a.T + 4 * n * np.eye(n)
        else:  # SPD
            a = a @ a.T + n * np.eye(n)
        tile = np.tril(a)
        l, d = _ldlt_kernel(tile, self.TINY)
        l_ref, d_ref = _ldlt_columns(tile, self.TINY)
        assert l.dtype == l_ref.dtype == dtype
        # the arithmetic is reordered (blocked updates): a tolerance from
        # the dtype, n·eps relative to the largest entry
        tol = n * np.finfo(np.float64).eps
        np.testing.assert_allclose(l, l_ref, rtol=0, atol=tol * np.abs(l_ref).max())
        np.testing.assert_allclose(d, d_ref, rtol=0, atol=tol * np.abs(d_ref).max())
        np.testing.assert_array_equal(np.diag(l), 1.0)
        np.testing.assert_array_equal(np.triu(l, 1), 0.0)

    def test_pivoting_tile_takes_the_column_loop(self, rng):
        """Where ``?sytrf`` would interchange or take a 2×2 block, the
        result is the column loop's, bit for bit."""
        n = 12
        a = rng.standard_normal((n, n))
        a = a @ a.T + n * np.eye(n)
        a[4:6, 4:6] = [[1e-3, 1.0], [1.0, 1e-3]]
        a[4:6, :4] = a[:4, 4:6] = 0.0
        a[6:, 4:6] = 0.0
        a[4:6, 6:] = 0.0
        tile = np.tril(a)
        _, ipiv, info = get_lapack_funcs(("sytrf",), (tile,))[0](tile, lower=1)
        assert info == 0 and not np.array_equal(ipiv, np.arange(1, n + 1))
        l, d = _ldlt_kernel(tile, self.TINY)
        l_ref, d_ref = _ldlt_columns(tile, self.TINY)
        np.testing.assert_array_equal(l, l_ref)
        np.testing.assert_array_equal(d, d_ref)
        np.testing.assert_allclose((l * d) @ l.T, a, atol=1e-10)

    def test_singular_tile_still_raises(self):
        singular = np.tril(np.ones((4, 4)))  # rank one
        with pytest.raises(SingularMatrixError):
            _ldlt_kernel(singular, self.TINY)
        with pytest.raises(SingularMatrixError):
            _ldlt_kernel(np.zeros((3, 3)), self.TINY)


def _full_trailing_update(c, w, xt, block_size):
    """The trailing update as one full product (the reference)."""
    c -= np.tril(w @ xt)


class TestTrailingUpdateBySlabs:
    """``blocked_ldlt`` updates the trailing matrix one ``block_size``-row
    slab at a time, lower part only.  Where the trailing matrix is one slab
    (``n ≤ 2·block_size``) the BLAS call is the full product's and the
    factors are bit for bit the reference's; with more slabs OpenBLAS may
    round a row slab of a ``gemm`` differently from the same rows of the
    whole product, so there the reference is matched to ``n·eps``."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_matches_the_full_product(self, monkeypatch, dtype):
        import repro.dense.ldlt as ldlt_mod

        rng = np.random.default_rng(6)
        for n, bs in ((1, 128), (129, 128), (256, 128), (257, 128),
                      (450, 128), (75, 16), (150, 32)):
            g = _well_conditioned(rng, n, dtype)
            a = g + g.T + n * np.eye(n)              # complex symmetric
            got = blocked_ldlt(a, block_size=bs)
            with monkeypatch.context() as m:
                m.setattr(ldlt_mod, "_lower_update", _full_trailing_update)
                want = blocked_ldlt(a, block_size=bs)
            for x, y in zip(got, want, strict=True):
                if n <= 2 * bs:
                    np.testing.assert_array_equal(x, y)
                else:
                    np.testing.assert_allclose(
                        x, y, rtol=0,
                        atol=n * np.finfo(np.float64).eps * np.abs(y).max())
            assert not np.triu(got[0], 1).any()
