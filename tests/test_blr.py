"""Tests for BLR panel compression policy and panel operations."""

import numpy as np
import pytest

from repro.dense import RowBlockKernel
from repro.hmatrix.rk import RkMatrix
from repro.sparse.blr import (
    BLRConfig,
    compress_panel,
    panel_nbytes,
)
from repro.utils.errors import ConfigurationError


def _low_rank_panel(rng, m, n, r):
    return (rng.standard_normal((m, r)) @ rng.standard_normal((r, n)))


class TestConfigValidation:
    def test_defaults(self):
        cfg = BLRConfig()
        assert cfg.enabled and cfg.tol == 1e-3

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0}, {"tol": -1e-3}, {"min_panel": 0},
        {"max_rank_fraction": 0.0}, {"max_rank_fraction": 1.5},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            BLRConfig(**kwargs)


class TestCompressPanel:
    def test_disabled_returns_input(self, rng):
        panel = rng.standard_normal((100, 100))
        assert compress_panel(panel, None) is panel
        assert compress_panel(panel, BLRConfig(enabled=False)) is panel

    def test_small_panel_stays_dense(self, rng):
        panel = rng.standard_normal((10, 10))
        out = compress_panel(panel, BLRConfig(min_panel=64))
        assert out is panel

    def test_low_rank_panel_compressed(self, rng):
        panel = _low_rank_panel(rng, 128, 96, 5)
        out = compress_panel(panel, BLRConfig(tol=1e-8, min_panel=32))
        assert isinstance(out, RkMatrix)
        assert out.rank <= 6
        np.testing.assert_allclose(out.to_dense(), panel, atol=1e-6)

    def test_full_rank_panel_stays_dense(self, rng):
        panel = rng.standard_normal((96, 96))
        out = compress_panel(panel, BLRConfig(tol=1e-12, min_panel=32))
        assert out is panel

    def test_compression_never_grows_storage(self, rng):
        """The byte break-even criterion: Rk is kept only when smaller."""
        for r in (2, 20, 60):
            panel = _low_rank_panel(rng, 80, 80, r)
            out = compress_panel(
                panel, BLRConfig(tol=1e-10, min_panel=16,
                                 max_rank_fraction=1.0)
            )
            assert panel_nbytes(out) <= panel.nbytes

    def test_rank_fraction_cap(self, rng):
        panel = _low_rank_panel(rng, 100, 100, 30)
        out = compress_panel(
            panel, BLRConfig(tol=1e-10, min_panel=16, max_rank_fraction=0.1)
        )
        assert isinstance(out, np.ndarray)  # 30 > 0.1*100: rejected


class TestPanelOps:
    def test_ops_consistent_dense_vs_rk(self, rng):
        panel = _low_rank_panel(rng, 60, 40, 4)
        rk = RkMatrix.from_dense(panel, 1e-12)
        x = rng.standard_normal((40, 3))
        y = rng.standard_normal((60, 3))
        kern = RowBlockKernel(np.float64)
        for update in (lambda c, b, trans: kern.update(c, panel, b, trans),
                       lambda c, b, trans: kern.update_rk(c, rk.u, rk.v, b,
                                                          trans)):
            cy, cx = y.copy(), x.copy()
            update(cy, x, False)
            update(cx, y, True)
            np.testing.assert_allclose(cy, y - panel @ x, atol=1e-8)
            np.testing.assert_allclose(cx, x - panel.T @ y, atol=1e-8)

    def test_nbytes(self, rng):
        panel = rng.standard_normal((8, 4))
        assert panel_nbytes(panel) == 8 * 4 * 8
        rk = RkMatrix.from_dense(panel, 1e-12)
        assert panel_nbytes(rk) == rk.nbytes


# -- rank first: values decide, vectors only for a kept panel -----------------

def _panel(rng, m, n, sigma, dtype):
    """An ``m × n`` panel with singular values ``sigma`` (padded with 0)."""
    k = min(m, n)

    def basis(rows):
        g = rng.standard_normal((rows, k))
        if np.issubdtype(dtype, np.complexfloating):
            g = g + 1j * rng.standard_normal((rows, k))
        return np.linalg.qr(g)[0]

    s = np.zeros(k)
    s[:len(sigma)] = sigma[:k]
    return ((basis(m) * s) @ basis(n).conj().T).astype(dtype)


def _svd_rule(panel, cfg):
    """The keep/reject rule, spelled out on the SVD's singular values."""
    m, n = panel.shape
    s = np.linalg.svd(panel.astype(np.result_type(panel.dtype, np.float64)),
                      compute_uv=False)
    rank = int(np.sum(s > cfg.tol * s[0])) if s[0] > 0 else 0
    keep = ((m + n) * rank < m * n
            and rank <= cfg.max_rank_fraction * min(m, n))
    return keep, rank, float(s[0])


_SPECTRA = {
    "exact-rank": lambda k: np.linspace(1.0, 0.5, 7),
    "geometric": lambda k: 0.5 ** np.arange(k),
    "flat": lambda k: np.ones(k),
}
_SHAPES = {"wide": (64, 200), "tall": (200, 64), "square": (96, 96)}


class _Decompositions:
    """Counts the decompositions that compute vectors."""

    def __init__(self, monkeypatch):
        self.svd_vectors = self.svd_values = self.eigh = 0
        svd, eigh = np.linalg.svd, np.linalg.eigh

        def counted_svd(a, *args, **kwargs):
            if kwargs.get("compute_uv", True):
                self.svd_vectors += 1
            else:
                self.svd_values += 1
            return svd(a, *args, **kwargs)

        def counted_eigh(a, *args, **kwargs):
            self.eigh += 1
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)


class TestRankFirst:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128],
                             ids=["real", "complex"])
    @pytest.mark.parametrize("spectrum", sorted(_SPECTRA))
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_decides_and_truncates_as_the_svd_does(
            self, rng, monkeypatch, shape, spectrum, dtype):
        m, n = _SHAPES[shape]
        panel = _panel(rng, m, n, _SPECTRA[spectrum](min(m, n)), dtype)
        cfg = BLRConfig(tol=1e-3, min_panel=32)
        keep, rank, sigma0 = _svd_rule(panel, cfg)
        assert keep == (spectrum != "flat")
        before = panel.copy()
        count = _Decompositions(monkeypatch)
        out = compress_panel(panel, cfg)
        # the Gram-valid regime: no SVD at all, vectors only when kept
        assert count.svd_vectors == count.svd_values == 0
        assert count.eigh == int(keep)
        assert np.array_equal(panel, before)
        if not keep:
            assert out is panel          # the same object, no copy
            return
        assert isinstance(out, RkMatrix) and out.rank == rank
        assert out.u.shape == (m, rank) and out.v.shape == (n, rank)
        assert out.u.dtype == out.v.dtype == panel.dtype
        assert out.u.flags.c_contiguous and out.v.flags.c_contiguous
        err = np.linalg.norm(panel - out.u @ out.v.T, 2)
        # the projection discards exactly the tail below the threshold
        assert err <= cfg.tol * sigma0 * (1 + 1e-6)

    @pytest.mark.parametrize("tol,dtype", [(1e-10, np.float64),
                                           (1e-3, np.float32)],
                             ids=["tight-tol", "float32"])
    @pytest.mark.parametrize("spectrum", ["exact-rank", "flat"])
    def test_outside_the_gram_bound_the_svd_decides(
            self, rng, monkeypatch, spectrum, tol, dtype):
        """``tol² < 100·n·eps``: the Gram eigenvalues cannot resolve the
        threshold, so the panel's own singular values are used."""
        panel = _panel(rng, 64, 200, _SPECTRA[spectrum](64), dtype)
        cfg = BLRConfig(tol=tol, min_panel=32)
        keep, rank, sigma0 = _svd_rule(panel, cfg)
        assert keep == (spectrum != "flat")
        count = _Decompositions(monkeypatch)
        out = compress_panel(panel, cfg)
        assert count.eigh == 0 and count.svd_values == 1
        assert count.svd_vectors == int(keep)   # still values first
        if not keep:
            assert out is panel
            return
        assert isinstance(out, RkMatrix) and out.dtype == panel.dtype
        assert out.rank == rank
        err = np.linalg.norm(panel.astype(np.float64) - out.to_dense(), 2)
        assert err <= (tol + 10 * np.finfo(dtype).eps) * sigma0 * 1.01

    def test_regime_boundary_is_the_documented_bound(self, rng, monkeypatch):
        panel = _panel(rng, 64, 200, 0.5 ** np.arange(64), np.float64)
        edge = np.sqrt(100 * 200 * np.finfo(np.float64).eps)
        for tol, gram in ((edge * 1.01, True), (edge * 0.99, False)):
            count = _Decompositions(monkeypatch)
            compress_panel(panel, BLRConfig(tol=tol, min_panel=32))
            assert (count.eigh, count.svd_vectors) == ((1, 0) if gram
                                                       else (0, 1))
            monkeypatch.undo()

    @pytest.mark.parametrize("tol", [1e-3, 1e-10], ids=["gram", "svd"])
    def test_zero_panel_and_rank_zero_do_not_divide(self, rng, tol):
        with np.errstate(all="raise"):
            out = compress_panel(np.zeros((64, 80)),
                                 BLRConfig(tol=tol, min_panel=32))
            assert isinstance(out, RkMatrix) and out.rank == 0
            assert out.shape == (64, 80)
            assert not out.to_dense().any()
        # a tolerance above 1 keeps nothing of a nonzero panel either
        with np.errstate(all="raise"):
            out = compress_panel(rng.standard_normal((64, 80)),
                                 BLRConfig(tol=2.0, min_panel=32))
            assert isinstance(out, RkMatrix) and out.rank == 0
