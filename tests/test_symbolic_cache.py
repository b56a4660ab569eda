"""Symbolic-analysis reuse and the frontal workspace arena.

Covers the :class:`repro.sparse.SymbolicCache` machinery end to end: the
pattern fingerprint (values must not participate), the thread-safe
exactly-once build, the border extension grafting a Schur border onto a
cached interior analysis (bit-identical to the full analysis), the arena
lifecycle with tracker accounting, and multi-factorization running every
``W`` block on one analysis, bit-identically across worker counts.

This module runs under the lock-order watchdog + tracker-balance recorder
(see ``conftest.py``), so every test doubles as a runtime check that the
cache and arena locks stay acyclic and every tracked byte is released.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.api import solve_coupled
from repro.core.config import SolverConfig
from repro.memory.tracker import MemoryTracker
from repro.sparse import (
    FrontArena,
    SparseSolver,
    SymbolicCache,
    pattern_fingerprint,
)


def _coupled_w(problem):
    """The paper's ``W`` layout: interior block first, Schur border last."""
    n_v, n_s = problem.n_fem, problem.n_bem
    w = sp.bmat(
        [[problem.a_vv, problem.a_sv.T], [problem.a_sv, None]], format="csr"
    )
    return w, np.arange(n_v, n_v + n_s)


class TestPatternFingerprint:
    def test_values_do_not_participate(self, pipe_small):
        a = pipe_small.a_vv.tocsr()
        b = a.copy()
        b.data = b.data * 2.0
        assert pattern_fingerprint(a) == pattern_fingerprint(b)

    def test_pattern_change_changes_key(self, pipe_small):
        a = pipe_small.a_vv.tocsr()
        b = a.tolil()
        b[0, a.shape[1] - 1] = 1.0
        b[a.shape[1] - 1, 0] = 1.0
        assert pattern_fingerprint(a) != pattern_fingerprint(b.tocsr())

    def test_index_width_is_canonicalised(self):
        a = sp.eye(8, format="csr")
        b = a.copy()
        b.indptr = b.indptr.astype(np.int64)
        b.indices = b.indices.astype(np.int64)
        assert pattern_fingerprint(a) == pattern_fingerprint(b)

    def test_extra_context_changes_key(self):
        a = sp.eye(8, format="csr")
        assert pattern_fingerprint(a) != pattern_fingerprint(a, extra=b"x")


class TestSymbolicCache:
    def test_hit_miss_accounting(self):
        cache = SymbolicCache()
        entry, hit = cache.get_or_build("k", lambda: object())
        assert not hit
        again, hit = cache.get_or_build("k", lambda: object())
        assert hit and again is entry
        assert (cache.misses, cache.hits, len(cache)) == (1, 1, 1)
        cache.clear()
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = SymbolicCache(max_entries=2)
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("b", lambda: "B")
        cache.get_or_build("a", lambda: "A")   # refresh a
        cache.get_or_build("c", lambda: "C")   # evicts b
        assert len(cache) == 2
        _, hit = cache.get_or_build("b", lambda: "B2")
        assert not hit

    def test_concurrent_first_touch_builds_exactly_once(self):
        cache = SymbolicCache()
        builds = []

        def build():
            builds.append(threading.get_ident())
            return object()

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    cache.get_or_build("k", build)[0]
                )
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1
        assert all(r is results[0] for r in results)


class TestSolverCacheIntegration:
    def test_extension_matches_full_analysis_bitwise(self, pipe_small):
        w, schur_vars = _coupled_w(pipe_small)
        kwargs = dict(
            coords_interior=pipe_small.coords_v, symmetric_values=True
        )
        plain = SparseSolver().factorize_schur(w, schur_vars, **kwargs)
        cached = SparseSolver(
            symbolic_cache=SymbolicCache()
        ).factorize_schur(w, schur_vars, **kwargs)
        assert np.array_equal(plain.schur, cached.schur)
        plain.free()
        cached.free()

    def test_same_pattern_hits(self, pipe_small):
        w, schur_vars = _coupled_w(pipe_small)
        solver = SparseSolver(symbolic_cache=SymbolicCache())
        mf1 = solver.factorize_schur(
            w, schur_vars, coords_interior=pipe_small.coords_v,
            symmetric_values=True,
        )
        mf2 = solver.factorize_schur(
            w, schur_vars, coords_interior=pipe_small.coords_v,
            symmetric_values=True,
        )
        assert (solver.n_symbolic_analyses, solver.n_symbolic_reuses) == (1, 1)
        assert np.array_equal(mf1.schur, mf2.schur)
        mf1.free()
        mf2.free()

    def test_value_change_hits_but_redoes_numeric(self, pipe_small):
        w, schur_vars = _coupled_w(pipe_small)
        scaled = w.copy()
        scaled.data = scaled.data * 2.0
        solver = SparseSolver(symbolic_cache=SymbolicCache())
        mf1 = solver.factorize_schur(
            w, schur_vars, coords_interior=pipe_small.coords_v,
            symmetric_values=True,
        )
        mf2 = solver.factorize_schur(
            scaled, schur_vars, coords_interior=pipe_small.coords_v,
            symmetric_values=True,
        )
        # symbolic reused, numeric genuinely recomputed on the new values
        assert (solver.n_symbolic_analyses, solver.n_symbolic_reuses) == (1, 1)
        assert np.array_equal(mf2.schur, 2.0 * mf1.schur)
        mf1.free()
        mf2.free()

    def test_pattern_change_misses(self, pipe_small):
        w, schur_vars = _coupled_w(pipe_small)
        n_int = pipe_small.n_fem
        bumped = w.tolil()
        # add a symmetric interior coupling that the pattern did not have
        bumped[0, n_int - 1] = 1e-3
        bumped[n_int - 1, 0] = 1e-3
        solver = SparseSolver(symbolic_cache=SymbolicCache())
        mf1 = solver.factorize_schur(
            w, schur_vars, coords_interior=pipe_small.coords_v,
            symmetric_values=True,
        )
        mf2 = solver.factorize_schur(
            bumped.tocsr(), schur_vars,
            coords_interior=pipe_small.coords_v, symmetric_values=True,
        )
        assert (solver.n_symbolic_analyses, solver.n_symbolic_reuses) == (2, 0)
        mf1.free()
        mf2.free()

    def test_timer_splits_analysis_from_numeric(self, pipe_small):
        from repro.utils.timer import PhaseTimer

        timer = PhaseTimer()
        solver = SparseSolver(symbolic_cache=SymbolicCache())
        mf = solver.factorize(
            pipe_small.a_vv, coords=pipe_small.coords_v,
            symmetric_values=True, timer=timer,
        )
        phases = timer.phases
        assert phases.get("sparse_analysis", 0.0) > 0.0
        assert phases.get("sparse_numeric", 0.0) > 0.0
        mf.free()


class TestFrontArena:
    def test_frames_are_zeroed_and_recycled(self):
        tracker = MemoryTracker()
        arena = FrontArena(tracker)
        f1 = arena.frame(8, np.float64)
        assert f1.shape == (8, 8) and not f1.any()
        f1[:] = 7.0
        f2 = arena.frame(4, np.float64)
        # same storage, rezeroed
        assert not f2.any()
        assert arena.capacity == 64
        arena.free()

    def test_tracker_charged_once_and_follows_growth(self):
        tracker = MemoryTracker()
        arena = FrontArena(tracker)
        arena.ensure(16, np.float64)
        assert arena.nbytes == 16 * 16 * 8
        assert tracker.in_use == arena.nbytes
        arena.ensure(4, np.float64)   # shrinking keeps capacity
        assert tracker.in_use == 16 * 16 * 8
        arena.ensure(32, np.float64)
        assert tracker.in_use == 32 * 32 * 8
        arena.free()
        assert tracker.in_use == 0

    def test_dtype_switch_reallocates(self):
        arena = FrontArena(MemoryTracker())
        arena.ensure(8, np.float64)
        f = arena.frame(8, np.complex128)
        assert f.dtype == np.complex128
        arena.free()

    def test_use_after_free_raises(self):
        arena = FrontArena(MemoryTracker())
        arena.free()
        arena.free()   # idempotent
        with pytest.raises(RuntimeError, match="freed"):
            arena.frame(4, np.float64)


class TestMultiFactorizationReuse:
    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_bit_identical_across_reuse_and_workers(
        self, pipe_small, n_workers
    ):
        # the cached-vs-fresh analysis bit identity is pinned at solver
        # level by test_extension_matches_full_analysis_bitwise; here the
        # one analysis serves every block on every runtime width
        config = SolverConfig(n_b=2, n_c=64)
        serial = solve_coupled(
            pipe_small, "multi_factorization", config.with_(n_workers=1)
        )
        sol = serial if n_workers == 1 else solve_coupled(
            pipe_small, "multi_factorization",
            config.with_(n_workers=n_workers),
        )
        assert np.array_equal(sol.x, serial.x)
        # the pipe is symmetric: one triangle of W blocks
        n_blocks = config.n_b * (config.n_b + 1) // 2
        assert sol.stats.n_sparse_factorizations == n_blocks
        from repro.runtime import resolve_runtime_backend

        if resolve_runtime_backend(None) == "process" and n_workers > 1:
            # the symbolic cache is per-process on the process backend, so
            # the first block of *each worker* analyses; reuse still covers
            # every further block a worker factorizes
            assert 1 <= sol.stats.n_symbolic_analyses <= n_workers
            assert (sol.stats.n_symbolic_analyses
                    + sol.stats.n_symbolic_reuses == n_blocks)
        else:
            assert sol.stats.n_symbolic_analyses == 1
            assert sol.stats.n_symbolic_reuses == n_blocks - 1

    def test_phase_split_is_reported(self, pipe_small):
        sol = solve_coupled(
            pipe_small, "multi_factorization",
            SolverConfig(n_b=2, n_c=64),
        )
        assert sol.stats.phases.get("sparse_analysis", 0.0) > 0.0
        assert sol.stats.phases.get("sparse_numeric", 0.0) > 0.0
