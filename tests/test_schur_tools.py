"""Direct tests for the Schur containers and the shared run machinery."""

import numpy as np
import pytest

from repro.core.config import SolverConfig
from repro.core.schur_tools import (
    DenseSchurContainer,
    HodlrSchurContainer,
    RunContext,
    make_schur_container,
)
from repro.memory import MemoryTracker


@pytest.fixture()
def tracker():
    return MemoryTracker()


class TestDenseContainer:
    def test_starts_from_a_ss(self, pipe_small, tracker):
        c = DenseSchurContainer(pipe_small, SolverConfig(), tracker)
        np.testing.assert_allclose(c.s, pipe_small.a_ss_op.to_dense())
        c.free()
        tracker.assert_all_freed()

    def test_blockwise_updates(self, pipe_small, tracker, rng):
        c = DenseSchurContainer(pipe_small, SolverConfig(), tracker)
        ref = c.s.copy()
        rows = np.arange(5, 25)
        cols = np.arange(30, 50)
        z = rng.standard_normal((20, 20))
        c.subtract_block(z, rows, cols)
        ref[np.ix_(rows, cols)] -= z
        c.add_block(2 * z, rows, cols)
        ref[np.ix_(rows, cols)] += 2 * z
        np.testing.assert_allclose(c.s, ref)
        c.free()

    def test_own_panel_is_updated_through_the_view(self, pipe_small,
                                                   tracker, rng):
        """The container's panel spec is two slices: the update writes
        ``S[:, lo:hi]`` in place, the same numbers ``np.ix_`` leaves."""
        c = DenseSchurContainer(pipe_small, SolverConfig(), tracker)
        n = pipe_small.n_bem
        rows, cols = c.panel(30, 94)
        assert isinstance(rows, slice) and isinstance(cols, slice)
        ref = c.s.copy()
        buffer = c.s
        z = rng.standard_normal((n, 64))
        c.subtract_block(z, rows, cols)
        ref[np.ix_(np.arange(n), np.arange(30, 94))] -= z
        c.add_block(0.5 * z, rows, cols)
        ref[np.ix_(np.arange(n), np.arange(30, 94))] += 0.5 * z
        assert c.s is buffer and np.array_equal(c.s, ref)
        c.free()

    def test_factorize_and_solve(self, pipe_small, tracker, rng):
        c = DenseSchurContainer(pipe_small, SolverConfig(), tracker)
        s_ref = c.s.copy()
        c.factorize(tracker)
        b = rng.standard_normal(pipe_small.n_bem)
        x = c.solve(b)
        np.testing.assert_allclose(s_ref @ x, b, atol=1e-8)
        c.free()
        tracker.assert_all_freed()

    def test_stored_bytes_is_dense(self, pipe_small, tracker):
        c = DenseSchurContainer(pipe_small, SolverConfig(), tracker)
        n = pipe_small.n_bem
        assert c.stored_bytes == n * n * 8
        c.free()


class TestHodlrContainer:
    def test_starts_from_compressed_a_ss(self, pipe_small, tracker):
        c = HodlrSchurContainer(pipe_small, SolverConfig(dense_backend="hmat"),
                                tracker)
        dense = pipe_small.a_ss_op.to_dense()
        err = np.abs(c.s.to_dense() - dense).max()
        assert err < 1e-3 * np.abs(dense).max()
        c.free()
        tracker.assert_all_freed()

    def test_tracked_bytes_follow_growth(self, pipe_small, tracker, rng):
        c = HodlrSchurContainer(pipe_small, SolverConfig(dense_backend="hmat"),
                                tracker)
        before = tracker.category_in_use("schur_store")
        n = pipe_small.n_bem
        c.commit(c.precompress_subtract(rng.standard_normal((n, 40)),
                                        np.arange(n), np.arange(40)))
        # growth lands in the pending accumulators until flush; store +
        # pending always covers the tree exactly
        store = tracker.category_in_use("schur_store")
        pending = tracker.category_in_use("axpy_accumulator")
        assert store + pending == c.s.nbytes()
        assert pending == c.s.pending_accumulator_nbytes()
        assert pending > 0
        c.flush()
        after = tracker.category_in_use("schur_store")
        assert tracker.category_in_use("axpy_accumulator") == 0
        assert after == c.s.nbytes()
        assert after != before
        c.free()
        tracker.assert_all_freed()

    def test_tracked_bytes_immediate_fold(self, pipe_small, tracker, rng):
        """A flush after every fold (``n_S = n_c``): nothing is left
        pending between folds and the store charge is the tree's bytes."""
        c = HodlrSchurContainer(
            pipe_small, SolverConfig(dense_backend="hmat"), tracker)
        n = pipe_small.n_bem
        for lo in (0, 40, 80):
            c.commit(c.precompress_subtract(rng.standard_normal((n, 40)),
                                            np.arange(n),
                                            np.arange(lo, lo + 40)))
            c.flush()
            assert tracker.category_in_use("axpy_accumulator") == 0
            assert c.s.pending_accumulator_nbytes() == 0
            assert tracker.category_in_use("schur_store") == c.s.nbytes()
        c.free()
        tracker.assert_all_freed()

    def test_factorize_and_solve(self, pipe_small, tracker, rng):
        c = HodlrSchurContainer(pipe_small, SolverConfig(dense_backend="hmat"),
                                tracker)
        dense = pipe_small.a_ss_op.to_dense()
        c.factorize(tracker)
        b = rng.standard_normal(pipe_small.n_bem)
        x = c.solve(b)
        assert np.linalg.norm(dense @ x - b) / np.linalg.norm(b) < 1e-2
        c.free()
        tracker.assert_all_freed()


class TestPanelSpec:
    """What a multi-solve panel is on each container: together the panels
    of any width reach every stored entry of ``S`` exactly once."""

    @pytest.mark.parametrize("flush_each", [False, True],
                             ids=["accumulate", "immediate"])
    @pytest.mark.parametrize("n_c", [7, 64, 100, 256, 10_000])
    @pytest.mark.parametrize("symmetric", [True, False],
                             ids=["lower-stored", "two-sided"])
    def test_hodlr_panels_cover_s_once(self, pipe_small, tracker, symmetric,
                                       n_c, flush_each):
        from repro.hmatrix.hmatrix import hodlr_zeros

        c = HodlrSchurContainer(
            pipe_small, SolverConfig(dense_backend="hmat"), tracker)
        n = pipe_small.n_bem
        assert c.tree.leaf_size == 64 and n % 64 == 0  # 7, 100: edges inside leaves
        c.s = hodlr_zeros(c.tree, 1e-10, np.float64, symmetric=symmetric)
        c._alloc.resize(c.s.nbytes())
        n_rows = []
        for lo in range(0, n, n_c):
            rows, cols = c.panel(lo, min(n, lo + n_c))
            assert np.array_equal(cols, c.tree.perm[lo:lo + n_c])
            n_rows.append(len(rows))
            c.commit(c.precompress_subtract(
                np.ones((len(rows), len(cols))), rows, cols))
            if flush_each:
                c.flush()
        c.flush()
        np.testing.assert_allclose(c.s.to_dense(), -1.0, rtol=0, atol=1e-12)
        if symmetric:
            # rows start at the leaf of the panel's first column
            assert n_rows == [n - 64 * (lo // 64) for lo in range(0, n, n_c)]
        else:
            assert set(n_rows) == {n}
        c.free()
        tracker.assert_all_freed()

    @pytest.mark.parametrize("backend", ["spido", "spido_ooc"])
    def test_dense_panels_are_whole_columns(self, pipe_small, tracker,
                                            backend):
        c = make_schur_container(
            pipe_small, SolverConfig(dense_backend=backend, n_c=100), tracker)
        n = pipe_small.n_bem
        start = (c.s.copy() if backend == "spido"
                 else pipe_small.a_ss_op.to_dense())
        for lo in range(0, n, 100):
            rows, cols = c.panel(lo, min(n, lo + 100))
            width = min(n, lo + 100) - lo
            c.subtract_block(np.ones((n, width)), rows, cols)
        if backend == "spido":
            end = c.s
        else:
            end = np.hstack([c.store.read_panel(lo, hi)
                             for lo, hi in c.store.panel_bounds()])
        np.testing.assert_allclose(end, start - 1.0, rtol=0, atol=1e-12)
        c.free()
        tracker.assert_all_freed()


class TestFactory:
    def test_backend_dispatch(self, pipe_small, tracker):
        dense = make_schur_container(pipe_small, SolverConfig(), tracker)
        assert isinstance(dense, DenseSchurContainer)
        dense.free()
        comp = make_schur_container(
            pipe_small, SolverConfig(dense_backend="hmat"), tracker
        )
        assert isinstance(comp, HodlrSchurContainer)
        comp.free()
        tracker.assert_all_freed()


class TestRunContext:
    def test_stats_snapshot(self, pipe_small):
        ctx = RunContext(pipe_small, SolverConfig(n_c=42), "multi_solve")
        with ctx.timer.phase("sparse_factorization"):
            pass
        ctx.n_sparse_factorizations = 3
        stats = ctx.stats(schur_bytes=100, sparse_factor_bytes=200)
        assert stats.algorithm == "multi_solve"
        assert stats.coupling == "MUMPS/SPIDO"
        assert stats.n_total == pipe_small.n_total
        assert stats.schur_bytes == 100
        assert stats.params["n_c"] == 42
        assert stats.n_sparse_factorizations == 3
        assert "sparse_factorization" in stats.phases

    def test_schur_compression_ratio(self, pipe_small):
        ctx = RunContext(pipe_small, SolverConfig(), "x")
        n = pipe_small.n_bem
        stats = ctx.stats(schur_bytes=n * n * 4, sparse_factor_bytes=0)
        assert stats.schur_compression_ratio == pytest.approx(0.5)
