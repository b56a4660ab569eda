"""Deferred-recompression accumulators and the split compressed AXPY.

Covers the :class:`repro.hmatrix.rk.RkAccumulator` lifecycle, the
pre-compress/commit split of ``HMatrix.axpy_dense``, the incremental byte
accounting of the compressed Schur container, and the end-to-end
guarantees: accuracy within the compression tolerance for randomized
panel schedules, byte-identical assembled ``S`` across worker counts,
and off-diagonal recompressions that follow the ``n_S`` flush windows of
multi-solve.

This module runs under the lock-order watchdog and tracker-balance
recorder (see ``conftest.py``): any ABBA-prone lock acquisition or
unbalanced tracker in the new parallel pre-compress path fails the test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import solve_coupled
from repro.core.config import SolverConfig
from repro.core.factorized import CoupledFactorization
from repro.core.result import CoupledSolution
from repro.hmatrix import rk as rk_mod
from repro.hmatrix.cluster import build_cluster_tree
from repro.hmatrix.hmatrix import hodlr_from_dense, hodlr_zeros
from repro.hmatrix.rk import RkAccumulator, RkMatrix, recompress, svd_truncate
from repro.utils.errors import ConfigurationError

TOL = 1e-9


def _random_rk(rng, m, n, r, dtype=np.float64):
    return RkMatrix(
        rng.standard_normal((m, r)).astype(dtype),
        rng.standard_normal((n, r)).astype(dtype),
    )


# -- RkAccumulator unit tests --------------------------------------------------
class TestRkAccumulator:
    def test_append_tracks_pending_rank_and_bytes(self, rng):
        base = RkMatrix.zeros(40, 30)
        acc = RkAccumulator(base)
        total = 0
        for r in (2, 3, 1):
            total += acc.append(_random_rk(rng, 40, 30, r))
        assert acc.pending_rank == 6
        assert acc.pending_nbytes == total > 0
        assert acc.n_appends == 3
        assert acc.n_flushes == 0

    def test_rank_zero_append_is_free(self, rng):
        acc = RkAccumulator(RkMatrix.zeros(10, 10))
        assert acc.append(RkMatrix.zeros(10, 10)) == 0
        assert acc.pending_rank == 0

    def test_shape_mismatch_rejected(self, rng):
        acc = RkAccumulator(RkMatrix.zeros(10, 10))
        with pytest.raises(ConfigurationError, match="shape mismatch"):
            acc.append(_random_rk(rng, 10, 11, 2))

    def test_flush_equals_eager_sum(self, rng):
        base = _random_rk(rng, 50, 40, 4)
        updates = [_random_rk(rng, 50, 40, 2) for _ in range(5)]
        dense = base.to_dense() + sum(u.to_dense() for u in updates)

        acc = RkAccumulator(base)
        for u in updates:
            acc.append(u)
        out = acc.flush(TOL)
        assert out is acc.base
        assert acc.pending_rank == 0
        assert acc.n_flushes == 1
        err = np.linalg.norm(out.to_dense() - dense)
        assert err <= 100 * TOL * np.linalg.norm(dense)

    def test_flush_is_recompress_of_the_stacked_factors(self, rng):
        base = _random_rk(rng, 50, 40, 4)
        updates = [_random_rk(rng, 50, 40, r) for r in (2, 3, 1)]
        acc = RkAccumulator(base)
        for u in updates:
            acc.append(u)
        out = acc.flush(TOL)
        ref = recompress([base.u] + [u.u for u in updates],
                         [base.v] + [u.v for u in updates], TOL)
        assert np.array_equal(out.u, ref.u)
        assert np.array_equal(out.v, ref.v)

    def test_flush_without_pending_is_noop(self, rng):
        base = _random_rk(rng, 20, 20, 3)
        acc = RkAccumulator(base)
        assert acc.flush(TOL) is base
        assert acc.n_flushes == 0

    def test_needs_flush_gates_on_pending_rank_only(self, rng, monkeypatch):
        # a converged base rank near the budget must not thrash
        monkeypatch.setattr(rk_mod, "MAX_ACCUMULATED_RANK", 8)
        base = _random_rk(rng, 64, 64, 30)
        acc = RkAccumulator(base)
        assert not acc.needs_flush
        acc.append(_random_rk(rng, 64, 64, 8))
        assert not acc.needs_flush
        acc.append(_random_rk(rng, 64, 64, 1))
        assert acc.needs_flush


# -- gesvd fallback -----------------------------------------------------------
class TestSvdFallback:
    def test_gesdd_failure_falls_back_to_gesvd(self, rng, monkeypatch):
        a = rng.standard_normal((30, 20))

        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        u, v = svd_truncate(a, 1e-12)
        err = np.linalg.norm(u @ v.T - a) / np.linalg.norm(a)
        assert err < 1e-10

    def test_fallback_respects_truncation(self, rng, monkeypatch):
        u0, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        v0, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        s = np.zeros(40)
        s[:5] = [10.0, 5.0, 2.0, 1.0, 0.5]
        a = (u0 * s) @ v0.T

        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        u, v = svd_truncate(a, 1e-3)
        assert u.shape[1] == 5


# -- HMatrix pre-compress / commit / flush ------------------------------------
class TestSplitAxpy:
    @pytest.fixture()
    def tree_and_target(self, rng):
        n = 160
        pts = rng.random((n, 3))
        tree = build_cluster_tree(pts, leaf_size=24)
        return n, tree

    def test_randomized_panels_stay_within_tolerance(self, tree_and_target,
                                                     rng, monkeypatch):
        """Property-style: random panel orders/sizes, with mid-stream
        budget flushes."""
        n, tree = tree_and_target
        monkeypatch.setattr(rk_mod, "MAX_ACCUMULATED_RANK", 32)
        tol = 1e-8
        for trial in range(3):
            hm = hodlr_zeros(tree, tol, np.float64)
            target = np.zeros((n, n))
            for _ in range(8):
                rows = np.sort(rng.choice(n, size=rng.integers(20, n),
                                          replace=False))
                cols = np.sort(rng.choice(n, size=rng.integers(10, 80),
                                          replace=False))
                alpha = rng.choice([-1.0, 1.0])
                panel = rng.standard_normal((len(rows), len(cols)))
                target[np.ix_(rows, cols)] += alpha * panel
                hm.axpy_dense(alpha, panel, rows, cols)
            hm.flush_accumulators()
            err = np.linalg.norm(hm.to_dense() - target)
            assert err <= 100 * tol * max(1.0, np.linalg.norm(target))
            assert hm.pending_accumulator_nbytes() == 0

    def test_reads_with_pending_state_raise(self, tree_and_target, rng):
        n, tree = tree_and_target
        hm = hodlr_zeros(tree, 1e-10, np.float64)
        panel = rng.standard_normal((n, 40))
        hm.axpy_dense(-1.0, panel, np.arange(n), np.arange(40))
        assert hm.pending_accumulator_nbytes() > 0
        # nbytes includes the pending factors
        assert hm.nbytes() >= hm.pending_accumulator_nbytes()
        # reading the bare factors would drop the pending updates
        x = rng.standard_normal(n)
        for read in (hm.to_dense, lambda: hm.matvec(x)):
            with pytest.raises(ConfigurationError, match="unflushed"):
                read()
        hm.flush_accumulators()
        target = np.zeros((n, n))
        target[:, :40] = -panel
        assert np.linalg.norm(hm.to_dense() - target) <= 1e-8
        np.testing.assert_allclose(hm.matvec(x), target @ x, atol=1e-8)

    def test_deltas_track_tree_walk_exactly(self, tree_and_target, rng,
                                            monkeypatch):
        """Incremental accounting invariant: deltas == full re-walk."""
        n, tree = tree_and_target
        monkeypatch.setattr(rk_mod, "MAX_ACCUMULATED_RANK", 16)
        hm = hodlr_zeros(tree, 1e-8, np.float64)
        store = hm.nbytes()
        pending = 0
        for k in range(6):
            cols = np.arange(k * 25, min(n, (k + 1) * 25))
            panel = rng.standard_normal((n, len(cols)))
            s_d, p_d = hm.axpy_dense(1.0, panel, np.arange(n), cols)
            store += s_d
            pending += p_d
            assert pending == hm.pending_accumulator_nbytes()
            assert store + pending == hm.nbytes()
        s_d, p_d = hm.flush_accumulators()
        store += s_d
        pending += p_d
        assert pending == 0
        assert store == hm.nbytes()

    def test_budget_trip_flushes_midstream(self, tree_and_target, rng,
                                           monkeypatch):
        n, tree = tree_and_target
        monkeypatch.setattr(rk_mod, "MAX_ACCUMULATED_RANK", 4)
        hm = hodlr_zeros(tree, 1e-8, np.float64)
        for k in range(5):
            panel = rng.standard_normal((n, 30))
            hm.axpy_dense(1.0, panel, np.arange(n),
                          np.arange(30 * k, 30 * (k + 1)))
        # tiny budget: mid-stream flushes happened before the final one
        assert hm.n_offdiag_recompressions > 0

    def test_immediate_fold_is_the_eager_rk_add(self, rng):
        """A commit flushed straight away (``n_S = n_c``): the factors,
        byte deltas and counters are those of one ``recompress`` of
        ``[block | piece]`` per fold."""
        n = 96
        tree = build_cluster_tree(rng.random((n, 3)), leaf_size=24)
        hm = hodlr_from_dense(rng.standard_normal((n, n)), tree, tol=1e-8)
        plan = hm.precompress_axpy(-1.0, rng.standard_normal((n, 40)),
                                   np.arange(n), np.arange(40))
        expected = []
        for upd in plan.folds:
            rk = upd.node.rk[upd.side]
            u = np.zeros((rk.shape[0], upd.small.rank))
            v = np.zeros((rk.shape[1], upd.small.rank))
            u[upd.rows] = upd.small.u
            v[upd.cols] = upd.small.v
            expected.append((rk.nbytes,
                             recompress([rk.u, u], [rk.v, v], hm.tol)))
        assert len({(id(f.node), f.side) for f in plan.folds}) == len(plan.folds)
        store_delta, pending_delta = hm.commit_axpy(plan)
        flushed = hm.flush_accumulators()
        store_delta += flushed[0]
        pending_delta += flushed[1]
        assert pending_delta == 0 == hm.pending_accumulator_nbytes()
        assert store_delta == sum(new.nbytes - old for old, new in expected)
        assert hm.n_offdiag_updates == len(plan.folds) > 0
        assert hm.n_offdiag_recompressions == len(plan.folds)
        for upd, (_, new) in zip(plan.folds, expected, strict=True):
            rk = upd.node.rk[upd.side]
            assert np.array_equal(rk.u, new.u)
            assert np.array_equal(rk.v, new.v)

    @pytest.mark.parametrize("accumulate", [True, False])
    def test_lower_stored_counters_are_the_21_share(self, tree_and_target,
                                                    rng, accumulate):
        """A symmetric matrix plans, commits and recompresses exactly the
        ``21`` pieces of the two-sided run — same factors, half the work —
        whether the commits accumulate or each is flushed straight away."""
        n, tree = tree_and_target
        lower = hodlr_zeros(tree, 1e-8, np.float64, symmetric=True)
        both = hodlr_zeros(tree, 1e-8, np.float64)
        share = {"12": [], "21": []}
        for lo in range(0, n, 48):
            cols = np.arange(lo, min(n, lo + 48))
            panel = rng.standard_normal((n, len(cols)))
            plans = [hm.precompress_axpy(-1.0, panel, np.arange(n), cols)
                     for hm in (lower, both)]
            assert {f.side for f in plans[0].folds} == {"21"}
            for fold in plans[1].folds:
                share[fold.side].append(id(fold.node))
            for hm, plan in zip((lower, both), plans, strict=True):
                hm.commit_axpy(plan)
                if not accumulate:
                    hm.flush_accumulators()
        for hm in (lower, both):
            hm.flush_accumulators()
        n12, n21 = len(share["12"]), len(share["21"])
        assert n12 > 0 and n21 > 0
        # random pieces are never rank 0: every planned piece is a fold
        assert both.n_panel_compressions == n12 + n21
        assert lower.n_panel_compressions == n21
        assert both.n_offdiag_updates == n12 + n21
        assert lower.n_offdiag_updates == n21
        # one recompression per fold, or per touched block when accumulated
        recomp = {side: len(set(ids)) if accumulate else len(ids)
                  for side, ids in share.items()}
        assert both.n_offdiag_recompressions == recomp["12"] + recomp["21"]
        assert lower.n_offdiag_recompressions == recomp["21"]

        def same_lower_blocks(a, b):
            if a.is_leaf:
                assert np.array_equal(a.dense, b.dense)
                return
            assert np.array_equal(a.rk21.u, b.rk21.u)
            assert np.array_equal(a.rk21.v, b.rk21.v)
            same_lower_blocks(a.h11, b.h11)
            same_lower_blocks(a.h22, b.h22)

        same_lower_blocks(lower.root, both.root)

    def test_copy_with_pending_state_is_rejected(self, tree_and_target, rng):
        n, tree = tree_and_target
        hm = hodlr_zeros(tree, 1e-8, np.float64)
        hm.axpy_dense(1.0, rng.standard_normal((n, 20)), np.arange(n),
                      np.arange(20))
        with pytest.raises(ConfigurationError, match="unflushed"):
            hm.copy()
        hm.flush_accumulators()
        hm.copy()  # flushed: fine

    def test_precompress_plan_is_pure(self, tree_and_target, rng):
        """precompress mutates nothing until commit applies the plan."""
        n, tree = tree_and_target
        hm = hodlr_zeros(tree, 1e-8, np.float64)
        before = hm.to_dense().copy()
        plan = hm.precompress_axpy(1.0, rng.standard_normal((n, 30)),
                                   np.arange(n), np.arange(30))
        np.testing.assert_array_equal(hm.to_dense(), before)
        assert plan.nbytes > 0
        hm.commit_axpy(plan)
        hm.flush_accumulators()
        assert np.linalg.norm(hm.to_dense() - before) > 0


# -- end-to-end: determinism, accuracy, flush cadence ---------------------------
def _assemble_compressed(problem, **cfg_kwargs):
    config = SolverConfig(**{"dense_backend": "hmat", "n_c": 64,
                             "n_s_block": 256, **cfg_kwargs})
    with CoupledFactorization(problem, "multi_solve", config) as fact:
        s_dense = fact._container.s.to_dense()
        recompressions = fact._container.s.n_offdiag_recompressions
        x_v, x_s = fact.solve(problem.b_v, problem.b_s)
    sol = CoupledSolution(x_v, x_s, fact.stats,
                          problem.relative_error(x_v, x_s))
    return s_dense, recompressions, sol


class TestEndToEnd:
    def test_schur_byte_identical_across_worker_counts(self, pipe_small):
        # the commit stage is a deterministic turnstile at every cadence
        for n_s_block in (256, 64):
            s1, _, sol1 = _assemble_compressed(
                pipe_small, n_s_block=n_s_block, n_workers=1)
            s4, _, sol4 = _assemble_compressed(
                pipe_small, n_s_block=n_s_block, n_workers=4)
            assert np.array_equal(s1, s4)
            assert np.array_equal(sol1.x_s, sol4.x_s)
            assert np.array_equal(sol1.x_v, sol4.x_v)

    # pipe_small's S has 512 columns over 8 leaves of 64, stored lower:
    # its 21 blocks span 256 (root), 2 × 128 and 4 × 64 columns.  Each
    # block is recompressed once per n_S window its columns meet:
    # n_S 64 → 4 + 2·2 + 4 = 12, n_S 128 → 2 + 2 + 4 = 8, and from
    # n_S 256 on (no window splits a block) once each, 7
    @pytest.mark.parametrize("n_s_block,recompressions",
                             [(64, 12), (128, 8), (256, 7), (512, 7)])
    def test_recompressions_follow_the_n_s_windows(
            self, pipe_small, n_s_block, recompressions):
        _, rec1, sol1 = _assemble_compressed(
            pipe_small, n_s_block=n_s_block, n_workers=1)
        _, rec4, sol4 = _assemble_compressed(
            pipe_small, n_s_block=n_s_block, n_workers=4)
        assert rec1 == rec4 == recompressions
        assert np.array_equal(sol1.x_v, sol4.x_v)
        assert np.array_equal(sol1.x_s, sol4.x_s)
        eps = SolverConfig().epsilon
        assert sol1.relative_error <= eps
        assert sol4.relative_error <= eps

    def test_multi_factorization_identical_across_workers(self, pipe_small):
        config = SolverConfig(dense_backend="hmat", n_b=2, n_c=64)
        s1 = solve_coupled(pipe_small, "multi_factorization",
                           config.with_(n_workers=1))
        s4 = solve_coupled(pipe_small, "multi_factorization",
                           config.with_(n_workers=4))
        assert s1.relative_error <= config.epsilon
        assert np.array_equal(s1.x_s, s4.x_s)
        assert np.array_equal(s1.x_v, s4.x_v)

    def test_stats_record_the_accumulator_peak(self, pipe_small):
        sol = solve_coupled(
            pipe_small, "multi_solve", SolverConfig(dense_backend="hmat"))
        assert "axpy_accumulate" not in sol.stats.params
        assert sol.stats.peak_by_category["axpy_accumulator"] > 0
