"""Tests for BLR panel compression policy and panel operations."""

import numpy as np
import pytest

from repro.dense import RowBlockKernel
from repro.hmatrix.rk import RkMatrix
from repro.sparse.blr import (
    BLRConfig,
    compress_panel,
    panel_nbytes,
    panel_update,
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
        for p in (panel, rk):
            cy, cx = y.copy(), x.copy()
            panel_update(kern, cy, p, x)
            panel_update(kern, cx, p, y, trans=True)
            np.testing.assert_allclose(cy, y - panel @ x, atol=1e-8)
            np.testing.assert_allclose(cx, x - panel.T @ y, atol=1e-8)

    def test_nbytes(self, rng):
        panel = rng.standard_normal((8, 4))
        assert panel_nbytes(panel) == 8 * 4 * 8
        rk = RkMatrix.from_dense(panel, 1e-12)
        assert panel_nbytes(rk) == rk.nbytes
