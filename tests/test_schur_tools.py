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
from repro.utils.timer import PhaseTimer


@pytest.fixture()
def tracker():
    return MemoryTracker()


def fold(container, alpha, x, rows, cols):
    """``S[rows, cols] += alpha * x`` through the update protocol."""
    container.commit(container.prepare(alpha, x, rows, cols, PhaseTimer()))


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
        fold(c, -1.0, z, rows, cols)
        ref[np.ix_(rows, cols)] -= z
        fold(c, 1.0, 2 * z, rows, cols)
        ref[np.ix_(rows, cols)] += 2 * z
        c.flush()
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
        fold(c, -1.0, z, rows, cols)
        ref[np.ix_(np.arange(n), np.arange(30, 94))] -= z
        fold(c, 0.5, z, rows, cols)
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
        fold(c, -1.0, rng.standard_normal((n, 40)), np.arange(n),
             np.arange(40))
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
            fold(c, -1.0, rng.standard_normal((n, 40)), np.arange(n),
                 np.arange(lo, lo + 40))
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
            fold(c, -1.0, np.ones((len(rows), len(cols))), rows, cols)
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
            fold(c, -1.0, np.ones((n, width)), rows, cols)
        c.flush()
        if backend == "spido":
            end = c.s
        else:
            end = np.hstack([c.store.read_panel(lo, hi)
                             for lo, hi in c.store.panel_bounds()])
        np.testing.assert_allclose(end, start - 1.0, rtol=0, atol=1e-12)
        c.free()
        tracker.assert_all_freed()


class TestUpdateProtocol:
    """``prepare`` / ``commit`` / ``flush`` mean the same on every
    container: a random sequence of ± updates, on slices and on index
    sets, gives the ``S`` a dense reference gets — exactly on an
    entrywise ``S``, to ε on a compressed one."""

    @pytest.mark.parametrize("backend", ["spido", "spido_ooc", "hmat"])
    def test_random_updates_match_a_dense_reference(self, pipe_small,
                                                    tracker, rng, backend):
        config = SolverConfig(dense_backend=backend, n_c=64)
        c = make_schur_container(pipe_small, config, tracker)
        n = pipe_small.n_bem
        ref = pipe_small.a_ss_op.to_dense()
        scale = 0.1 * np.abs(ref).max()
        for step in range(12):
            width = int(rng.integers(1, 40))
            if step % 2:
                lo = int(rng.integers(0, n - width))
                rows, cols = slice(None), slice(lo, lo + width)
            else:
                rows = rng.choice(n, size=int(rng.integers(1, n)),
                                  replace=False)
                cols = rng.choice(n, size=width, replace=False)
            # a smooth block (rank one) of either sign, as Z_i / X_ij are,
            # and its mirror: the pipe's S is symmetric, and lower-stored
            # when compressed
            x = scale * np.outer(rng.standard_normal(len(np.arange(n)[rows])),
                                 rng.standard_normal(width))
            alpha = float(rng.choice([-1.0, 1.0]))
            for piece in ((x, rows, cols), (x.T, cols, rows)):
                c.commit(c.prepare(alpha, *piece, PhaseTimer()))
                ids = np.arange(n)
                ref[np.ix_(ids[piece[1]], ids[piece[2]])] += alpha * piece[0]
            if step == 5:
                c.flush()
        c.flush()
        if backend == "spido":
            s = c.s
        elif backend == "spido_ooc":
            s = np.hstack([c.store.read_panel(lo, hi)
                           for lo, hi in c.store.panel_bounds()])
        else:
            s = c.s.to_dense()
        if backend == "hmat":
            err = np.linalg.norm(s - ref, 2) / np.linalg.norm(ref, 2)
            assert err <= config.epsilon
        else:
            np.testing.assert_allclose(s, ref, rtol=0, atol=0)
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
