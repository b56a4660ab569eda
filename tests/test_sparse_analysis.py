"""Symbolic-analysis reuse and the frontal workspace arena.

One :meth:`repro.sparse.SparseSolver.analyse` serves every numeric call
on its pattern: the border graft is bit-identical to the from-scratch
bordered analysis, the numeric phase is redone on new values, and a
matrix the analysis does not describe is refused.  Also covered: the
arena lifecycle with tracker accounting, and multi-factorization running
every ``W`` block on one analysis, bit-identically across worker counts.

This module runs under the lock-order watchdog + tracker-balance recorder
(see ``conftest.py``), so every test doubles as a runtime check that the
runtime and arena locks stay acyclic and every tracked byte is released.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.api import solve_coupled
from repro.core.config import SolverConfig
from repro.memory.tracker import MemoryTracker
from repro.sparse import (
    FrontArena,
    MultifrontalFactorization,
    SparseSolver,
    symbolic_analysis,
)
from repro.utils.errors import ConfigurationError
from repro.utils.timer import PhaseTimer


def _coupled_w(problem):
    """The paper's ``W`` layout: interior block first, Schur border last."""
    n_v, n_s = problem.n_fem, problem.n_bem
    w = sp.bmat(
        [[problem.a_vv, problem.a_sv.T], [problem.a_sv, None]], format="csr"
    )
    return w, np.arange(n_v, n_v + n_s)


class TestExplicitAnalysis:
    """One analysis of ``A_vv``, many numeric calls."""

    def test_extension_matches_full_analysis_bitwise(self, pipe_small):
        w, schur_vars = _coupled_w(pipe_small)
        solver = SparseSolver()
        analysis = solver.analyse(pipe_small.a_vv, pipe_small.coords_v)
        grafted = solver.factorize_schur(analysis, w, schur_vars,
                                         symmetric_values=True)
        scratch = MultifrontalFactorization(
            w, symbolic_analysis(w, analysis.tree, schur_vars=schur_vars),
            True)
        assert np.array_equal(grafted.schur, scratch.schur)
        grafted.free()
        scratch.free()

    def test_same_pattern_hits(self, pipe_small):
        w, schur_vars = _coupled_w(pipe_small)
        solver = SparseSolver()
        analysis = solver.analyse(pipe_small.a_vv, pipe_small.coords_v)
        mf1 = solver.factorize_schur(analysis, w, schur_vars,
                                     symmetric_values=True)
        mf2 = solver.factorize_schur(analysis, w, schur_vars,
                                     symmetric_values=True)
        # both grafts share the interior analysis' tree and sweep maps
        for mf in (mf1, mf2):
            assert mf.symbolic.tree is analysis.tree
            assert mf.symbolic.interior_pos is analysis.symbolic.interior_pos
        assert np.array_equal(mf1.schur, mf2.schur)
        mf1.free()
        mf2.free()

    def test_value_change_hits_but_redoes_numeric(self, pipe_small):
        w, schur_vars = _coupled_w(pipe_small)
        scaled = w.copy()
        scaled.data = scaled.data * 2.0
        solver = SparseSolver()
        analysis = solver.analyse(pipe_small.a_vv, pipe_small.coords_v)
        mf1 = solver.factorize_schur(analysis, w, schur_vars,
                                     symmetric_values=True)
        mf2 = solver.factorize_schur(analysis, scaled, schur_vars,
                                     symmetric_values=True)
        # one analysis, numeric genuinely recomputed on the new values
        assert np.array_equal(mf2.schur, 2.0 * mf1.schur)
        mf1.free()
        mf2.free()

    @pytest.mark.parametrize("mismatch", ["shape", "border", "pattern"])
    def test_foreign_analysis_is_refused(self, pipe_small, mismatch):
        """A matrix the analysis does not describe raises
        ``ConfigurationError`` and leaves nothing charged."""
        a = pipe_small.a_vv.tocsr()
        w, schur_vars = _coupled_w(pipe_small)
        tracker = MemoryTracker()
        solver = SparseSolver(tracker=tracker)
        analysis = solver.analyse(a, pipe_small.coords_v)
        if mismatch == "shape":
            # the whole W against the analysis of its interior block
            with pytest.raises(ConfigurationError, match="does not match"):
                solver.factorize(analysis, w, symmetric_values=True)
        elif mismatch == "border":
            with pytest.raises(ConfigurationError, match="border adds"):
                solver.factorize_schur(analysis, w, schur_vars[1:],
                                       symmetric_values=True)
        else:
            # couple a pivot of the first front to a later variable
            # outside its boundary: a nonzero the analysis never saw
            first = analysis.symbolic.fronts[0]
            later = np.concatenate(
                [f.own for f in analysis.symbolic.fronts[1:]])
            far = later[~np.isin(later, first.bnd)][0]
            stray = a.tolil()
            stray[first.own[0], far] = stray[far, first.own[0]] = 1e-3
            with pytest.raises(ConfigurationError, match="analysed pattern"):
                solver.factorize(analysis, stray.tocsr(),
                                 symmetric_values=True)
        tracker.assert_all_freed()

    def test_timer_splits_analysis_from_numeric(self, pipe_small):
        timer = PhaseTimer()
        solver = SparseSolver()
        analysis = solver.analyse(pipe_small.a_vv, pipe_small.coords_v,
                                  timer=timer)
        assert set(timer.phases) == {"sparse_analysis"}
        mf = solver.factorize(analysis, pipe_small.a_vv,
                              symmetric_values=True, timer=timer)
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
    def test_bitwise_across_reuse_and_workers(
        self, pipe_small, n_workers
    ):
        # the grafted-vs-fresh analysis bit identity is pinned at solver
        # level by test_extension_matches_full_analysis_bitwise; here the
        # one analysis serves every block on every runtime
        config = SolverConfig(n_b=2, n_c=64)
        serial = solve_coupled(
            pipe_small, "multi_factorization", config.with_(n_workers=1)
        )
        # the pipe is symmetric: one triangle of W blocks
        n_blocks = config.n_b * (config.n_b + 1) // 2
        backends = [None] if n_workers == 1 else ["thread", "process"]
        for backend in backends:
            sol = serial if n_workers == 1 else solve_coupled(
                pipe_small, "multi_factorization",
                config.with_(n_workers=n_workers, runtime_backend=backend),
            )
            assert np.array_equal(sol.x, serial.x)
            assert sol.stats.n_sparse_factorizations == n_blocks
            # analysed once on the coordinator, on every runtime
            assert (sol.stats.n_symbolic_analyses,
                    sol.stats.n_symbolic_reuses) == (1, n_blocks - 1)

    def test_phase_split_is_reported(self, pipe_small):
        sol = solve_coupled(
            pipe_small, "multi_factorization",
            SolverConfig(n_b=2, n_c=64),
        )
        assert sol.stats.phases.get("sparse_analysis", 0.0) > 0.0
        assert sol.stats.phases.get("sparse_numeric", 0.0) > 0.0
