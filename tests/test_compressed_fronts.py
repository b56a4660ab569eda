"""Compressed-front pipeline: FCSU panels in the multifrontal kernels.

FCSU (compress-before-update) panels keep LDLᵀ/LU solves — including
``solve_transpose`` — accurate, surface the ``fcsu_compressed_updates``
counter in the sparse statistics, and fall back *bit-identically* to the
historical FSCU path when the panel threshold never fires.

The sampled Schur borders that ``front_compress`` also switches on are
tested with the rest of the sampled path in ``test_randomized.py``.
"""

from __future__ import annotations

import numpy as np

from repro.sparse import BLRConfig, SparseSolver


# ---------------------------------------------------------------------------
# FCSU at the multifrontal level
# ---------------------------------------------------------------------------

def _fcsu_blr(**overrides):
    kw = dict(tol=1e-4, min_panel=16, compress_before_update=True,
              fcsu_min_panel=16)
    kw.update(overrides)
    return BLRConfig(**kw)


class TestFcsuPanels:
    def test_ldlt_accuracy_and_counter(self, pipe_small, rng):
        a = pipe_small.a_vv.tocsr()
        f = SparseSolver(blr=_fcsu_blr()).factorize(
            a, coords=pipe_small.coords_v, symmetric_values=True)
        assert f.statistics()["fcsu_compressed_updates"] > 0
        b = rng.standard_normal(a.shape[0])
        x = f.solve(b)
        res = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert res < 1e-6
        f.free()

    def test_lu_solve_and_solve_transpose(self, aircraft_small, rng):
        a = aircraft_small.a_vv.tocsr()
        f = SparseSolver(blr=_fcsu_blr(fcsu_min_panel=32)).factorize(
            a, coords=aircraft_small.coords_v, symmetric_values=False)
        assert f.statistics()["fcsu_compressed_updates"] > 0
        n = a.shape[0]
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = f.solve(b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-6
        # the transpose solve runs through the same compressed panels
        y = f.solve_transpose(b)
        assert np.linalg.norm(a.T @ y - b) / np.linalg.norm(b) < 1e-6
        f.free()

    def test_unreachable_threshold_is_bit_identical_to_fscu(
            self, pipe_small, rng):
        """FCSU with a panel floor no front reaches must take the exact
        path everywhere — factors and solutions match FSCU to the byte."""
        a = pipe_small.a_vv.tocsr()
        b = rng.standard_normal(a.shape[0])
        f_off = SparseSolver(
            blr=_fcsu_blr(compress_before_update=False)
        ).factorize(a, coords=pipe_small.coords_v, symmetric_values=True)
        f_gated = SparseSolver(
            blr=_fcsu_blr(fcsu_min_panel=10 ** 6)
        ).factorize(a, coords=pipe_small.coords_v, symmetric_values=True)
        assert f_gated.statistics()["fcsu_compressed_updates"] == 0
        assert np.array_equal(f_off.solve(b), f_gated.solve(b))
        f_off.free()
        f_gated.free()
