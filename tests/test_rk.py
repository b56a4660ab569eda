"""Tests for Rk (low-rank outer-product) blocks, SVD truncation and the
one rounding routine, ``recompress``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hmatrix.rk import RkMatrix, rank_first, recompress, svd_truncate
from tests.test_blr import _SHAPES, _SPECTRA, _Decompositions, _panel
from repro.utils.errors import ConfigurationError


def _low_rank(rng, m, n, r, dtype=np.float64):
    u = rng.standard_normal((m, r)).astype(dtype)
    v = rng.standard_normal((n, r)).astype(dtype)
    if np.issubdtype(dtype, np.complexfloating):
        u = u + 1j * rng.standard_normal((m, r))
        v = v + 1j * rng.standard_normal((n, r))
    return u @ v.T


class TestSvdTruncate:
    def test_exact_rank_recovered(self, rng):
        a = _low_rank(rng, 40, 30, 5)
        u, v = svd_truncate(a, tol=1e-10)
        assert u.shape[1] == 5
        np.testing.assert_allclose(u @ v.T, a, atol=1e-8)

    def test_error_bounded_by_tolerance(self, rng):
        a = rng.standard_normal((50, 50))
        tol = 1e-2
        u, v = svd_truncate(a, tol=tol)
        err = np.linalg.norm(a - u @ v.T, 2)
        sigma1 = np.linalg.norm(a, 2)
        assert err <= tol * sigma1 * 1.0001

    def test_max_rank_cap(self, rng):
        a = rng.standard_normal((30, 30))
        u, v = svd_truncate(a, tol=0.0, max_rank=7)
        assert u.shape[1] == 7

    def test_zero_matrix_gives_rank_zero(self):
        u, v = svd_truncate(np.zeros((10, 5)), tol=1e-3)
        assert u.shape == (10, 0)
        assert v.shape == (5, 0)

    def test_empty_block(self):
        u, v = svd_truncate(np.zeros((0, 4)), tol=1e-3)
        assert u.shape == (0, 0)
        assert v.shape == (4, 0)

    def test_non_2d_rejected(self):
        with pytest.raises(ConfigurationError):
            svd_truncate(np.zeros(5), tol=1e-3)


class TestRkMatrix:
    def test_construction_and_props(self, rng):
        rk = RkMatrix(rng.standard_normal((8, 3)), rng.standard_normal((6, 3)))
        assert rk.shape == (8, 6)
        assert rk.rank == 3
        assert rk.nbytes == (8 + 6) * 3 * 8

    def test_mismatched_factors_rejected(self):
        with pytest.raises(ConfigurationError):
            RkMatrix(np.zeros((5, 2)), np.zeros((4, 3)))

    def test_zeros_constructor(self):
        rk = RkMatrix.zeros(4, 7)
        assert rk.rank == 0
        np.testing.assert_array_equal(rk.to_dense(), np.zeros((4, 7)))

    def test_matvec_and_rmatvec(self, rng):
        a = _low_rank(rng, 20, 15, 4)
        rk = RkMatrix.from_dense(a, 1e-12)
        x = rng.standard_normal((15, 2))
        y = rng.standard_normal((20, 2))
        np.testing.assert_allclose(rk.matvec(x), a @ x, atol=1e-10)
        np.testing.assert_allclose(rk.rmatvec(y), a.T @ y, atol=1e-10)

    def test_truncate_reduces_inflated_rank(self, rng):
        a = _low_rank(rng, 30, 30, 4)
        u = np.hstack([RkMatrix.from_dense(a, 1e-12).u] * 3)
        v = np.hstack([RkMatrix.from_dense(a, 1e-12).v] * 3)
        fat = RkMatrix(u, v)  # rank 12 representation of 3x the block
        slim = fat.truncate(1e-10)
        assert slim.rank == 4
        np.testing.assert_allclose(slim.to_dense(), 3 * a, atol=1e-8)

    def test_truncate_thicker_than_block_falls_back(self, rng):
        rk = RkMatrix(rng.standard_normal((5, 9)), rng.standard_normal((4, 9)))
        out = rk.truncate(1e-12)
        assert out.rank <= 4
        np.testing.assert_allclose(out.to_dense(), rk.to_dense(), atol=1e-8)

    def test_add_with_recompression(self, rng):
        a = RkMatrix.from_dense(_low_rank(rng, 25, 20, 3), 1e-12)
        b = RkMatrix.from_dense(_low_rank(rng, 25, 20, 2), 1e-12)
        out = recompress([a.u, b.u], [a.v, b.v], tol=1e-10)
        assert out.rank <= 5
        np.testing.assert_allclose(out.to_dense(),
                                   a.to_dense() + b.to_dense(), atol=1e-8)

    def test_add_shape_mismatch_rejected(self, rng):
        a, b = RkMatrix.zeros(3, 3), RkMatrix.zeros(4, 3)
        with pytest.raises(ConfigurationError, match="shape mismatch"):
            recompress([a.u, b.u], [a.v, b.v], tol=1e-3)

    def test_add_rank_zero_is_identity(self, rng):
        rk = RkMatrix.from_dense(_low_rank(rng, 10, 10, 2), 1e-12)
        zero = RkMatrix.zeros(10, 10)
        out = recompress([rk.u, zero.u], [rk.v, zero.v], tol=1e-10)
        alone = rk.truncate(1e-10)
        assert np.array_equal(out.u, alone.u)
        assert np.array_equal(out.v, alone.v)

    def test_complex_symmetric_uses_plain_transpose(self, rng):
        a = _low_rank(rng, 15, 15, 3, np.complex128)
        a = a + a.T  # complex symmetric
        rk = RkMatrix.from_dense(a, 1e-12)
        np.testing.assert_allclose(rk.to_dense(), a, atol=1e-8)


class TestRankFirst:
    """The one dense→Rk routine behind ``RkMatrix.from_dense`` (and, with
    a ``keep`` test, behind ``compress_panel``: see ``test_blr.py``)."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128],
                             ids=["real", "complex"])
    @pytest.mark.parametrize("spectrum", sorted(_SPECTRA))
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_gram_branch_truncates_as_the_svd_does(
            self, rng, monkeypatch, shape, spectrum, dtype):
        m, n = _SHAPES[shape]
        a = _panel(rng, m, n, _SPECTRA[spectrum](min(m, n)), dtype)
        before = a.copy()
        s = np.linalg.svd(a, compute_uv=False)
        rank = int(np.sum(s > 1e-3 * s[0]))
        count = _Decompositions(monkeypatch)
        rk = RkMatrix.from_dense(a, 1e-3)
        # one eigh gives values and vectors; no SVD of the block at all
        assert (count.eigh, count.svd_vectors, count.svd_values) == (1, 0, 0)
        assert np.array_equal(a, before)
        assert rk.rank == rank and rk.shape == (m, n)
        assert rk.u.dtype == rk.v.dtype == a.dtype
        assert rk.u.flags.c_contiguous and rk.v.flags.c_contiguous
        # Rk is U Vᵀ, plain transpose, for complex data too
        err = np.linalg.norm(a - rk.u @ rk.v.T, 2)
        assert err <= 1e-3 * s[0] * (1 + 1e-6)
        if np.iscomplexobj(a) and rank:
            assert np.linalg.norm(a - rk.u @ rk.v.conj().T, 2) > 1e-2 * s[0]

    @pytest.mark.parametrize("tol,dtype", [(1e-9, np.float64),
                                           (1e-3, np.float32)],
                             ids=["tight-tol", "float32"])
    def test_outside_the_gram_bound_it_is_the_svd(self, rng, monkeypatch,
                                                  tol, dtype):
        a = _panel(rng, 64, 200, _SPECTRA["geometric"](64), dtype)
        count = _Decompositions(monkeypatch)
        rk = RkMatrix.from_dense(a, tol)
        assert (count.eigh, count.svd_vectors, count.svd_values) == (0, 1, 0)
        monkeypatch.undo()
        u, v = svd_truncate(a, tol)
        assert np.array_equal(rk.u, u) and np.array_equal(rk.v, v)
        assert rk.dtype == dtype

    @pytest.mark.parametrize("tol", [1e-3, 1e-9], ids=["gram", "svd"])
    def test_keep_sees_the_rank_before_any_vector(self, rng, monkeypatch,
                                                  tol):
        a = _panel(rng, 64, 200, np.linspace(1.0, 0.5, 7), np.float64)
        asked = []
        count = _Decompositions(monkeypatch)
        assert rank_first(a, tol, keep=lambda r: asked.append(r)) is None
        assert asked == [7]
        assert count.eigh == count.svd_vectors == 0
        u, v = rank_first(a, tol, keep=lambda r: True)
        assert u.shape == (64, 7) and v.shape == (200, 7)

    def test_degenerate_blocks(self):
        with np.errstate(all="raise"):
            rk = RkMatrix.from_dense(np.zeros((70, 90)), 1e-3)
        assert rk.shape == (70, 90) and rk.rank == 0
        assert RkMatrix.from_dense(np.zeros((0, 4)), 1e-3).shape == (0, 4)
        ints = RkMatrix.from_dense(np.arange(12).reshape(3, 4), 1e-3)
        assert ints.dtype == np.float64 and ints.rank == 2
        with pytest.raises(ConfigurationError):
            rank_first(np.zeros(5), 1e-3)

    def test_thick_truncate_shares_the_routine(self, rng, monkeypatch):
        u, v = rng.standard_normal((30, 5)), rng.standard_normal((24, 5))
        thick = RkMatrix(np.hstack([u] * 6), np.hstack([v] * 6))  # rank 30
        count = _Decompositions(monkeypatch)
        out = thick.truncate(1e-4)
        assert (count.eigh, count.svd_vectors) == (1, 0)
        assert out.rank == 5
        np.testing.assert_allclose(out.to_dense(), 6 * u @ v.T, atol=1e-9)


class TestRecompress:
    """``recompress`` is the one rounding of a factored sum."""

    def test_thick_stack_is_rank_first_of_the_dense_sum(self, rng):
        us = [rng.standard_normal((30, 12)) for _ in range(2)]
        vs = [rng.standard_normal((24, 12)) for _ in range(2)]
        out = recompress(us, vs, 1e-4)  # rank 24 ≥ min(30, 24)
        u, v = rank_first(np.hstack(us) @ np.hstack(vs).T, 1e-4)
        assert np.array_equal(out.u, u) and np.array_equal(out.v, v)

    def test_thin_stack_is_qr_plus_core_svd(self, rng):
        us = [rng.standard_normal((40, 3)) for _ in range(2)]
        vs = [rng.standard_normal((30, 3)) for _ in range(2)]
        out = recompress(us, vs, 1e-12)
        qu, ru = np.linalg.qr(np.hstack(us))
        qv, rv = np.linalg.qr(np.hstack(vs))
        cu, cv = svd_truncate(ru @ rv.T, 1e-12)
        assert np.array_equal(out.u, qu @ cu)
        assert np.array_equal(out.v, qv @ cv)

    def test_zero_sum_is_rank_zero(self):
        out = recompress([np.zeros((5, 0)), np.zeros((5, 0))],
                         [np.zeros((7, 0), np.complex128), np.zeros((7, 0))],
                         1e-3)
        assert out.shape == (5, 7) and out.rank == 0
        assert out.dtype == np.complex128

    def test_mixed_dtypes_promote(self, rng):
        a = RkMatrix(rng.standard_normal((20, 2)), rng.standard_normal((15, 2)))
        b = RkMatrix(rng.standard_normal((20, 1)) + 1j,
                     rng.standard_normal((15, 1)))
        out = recompress([a.u, b.u], [a.v, b.v], 1e-12)
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out.to_dense(),
                                   a.to_dense() + b.to_dense(), atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 30), n=st.integers(1, 30), r=st.integers(1, 6),
    seed=st.integers(0, 500),
)
def test_property_from_dense_roundtrip(m, n, r, seed):
    """from_dense at tight tolerance reproduces any low-rank block."""
    rng = np.random.default_rng(seed)
    a = _low_rank(rng, m, n, min(r, m, n))
    rk = RkMatrix.from_dense(a, 1e-12)
    assert rk.rank <= min(r, m, n)
    np.testing.assert_allclose(rk.to_dense(), a, atol=1e-7 * max(1, np.abs(a).max()))
