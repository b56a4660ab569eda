"""Tests of the parallel panel runtime (:mod:`repro.runtime`).

Covers the three guarantees the runtime advertises — deterministic
(bit-identical) reductions for any worker count, budget-aware admission
keeping tracked peak memory within ``limit_bytes``, and clean teardown
(``assert_all_freed`` after concurrent runs) — plus the scheduler
mechanics in isolation and the ``Z``-panel accounting regression.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.api import solve_coupled
from repro.core.config import SolverConfig
from repro.core.factorized import CoupledFactorization
from repro.core.result import CoupledSolution
from repro.memory.tracker import MemoryTracker
from repro.runtime import PanelTask, ParallelRuntime, resolve_n_workers
from repro.utils.errors import ConfigurationError, MemoryLimitExceeded

UNCOMPRESSED = SolverConfig(dense_backend="spido", n_c=64, n_b=2)
COMPRESSED = SolverConfig(
    dense_backend="hmat", n_c=64, n_s_block=192, n_b=2
)


# ---------------------------------------------------------------------------
# scheduler mechanics in isolation
# ---------------------------------------------------------------------------

class TestScheduler:
    def _noop_task(self, index, result=None, cost=0, sleep=0.0):
        def fn(timer, alloc):
            if sleep:
                time.sleep(sleep)
            return result if result is not None else index

        return PanelTask(index=index, fn=fn, cost_bytes=cost,
                         label=f"task {index}")

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_consumption_is_in_task_order(self, n_workers):
        tracker = MemoryTracker()
        seen = []
        # later tasks finish first (decreasing sleep): consumption order
        # must still be the submission order
        tasks = [
            self._noop_task(i, sleep=0.02 * (5 - i)) for i in range(5)
        ]
        with ParallelRuntime(tracker, n_workers=n_workers) as runtime:
            runtime.run(tasks, lambda task, result: seen.append(result))
        assert seen == list(range(5))
        tracker.assert_all_freed()

    def test_budget_bounds_concurrent_tasks(self):
        # each task holds 40 B; the 100 B limit admits at most two at once
        tracker = MemoryTracker(limit_bytes=100)
        lock = threading.Lock()
        state = {"running": 0, "max_running": 0}

        def make(i):
            def fn(timer, alloc):
                with lock:
                    state["running"] += 1
                    state["max_running"] = max(
                        state["max_running"], state["running"]
                    )
                time.sleep(0.02)
                with lock:
                    state["running"] -= 1
                return i

            return PanelTask(index=i, fn=fn, cost_bytes=40)

        with ParallelRuntime(tracker, n_workers=4) as runtime:
            runtime.run([make(i) for i in range(8)], lambda t, r: None)
        assert state["max_running"] <= 2
        assert tracker.peak <= 100
        tracker.assert_all_freed()
        assert tracker.admission_wait_seconds > 0.0

    def test_headroom_reservation_gates_admission(self):
        # 40 B charge + 40 B headroom each: only one task fits under 100 B
        tracker = MemoryTracker(limit_bytes=100)
        lock = threading.Lock()
        state = {"running": 0, "max_running": 0}

        def make(i):
            def fn(timer, alloc):
                with lock:
                    state["running"] += 1
                    state["max_running"] = max(
                        state["max_running"], state["running"]
                    )
                # the nested charge the headroom was reserved for
                with tracker.borrow(40, label="nested workspace"):
                    time.sleep(0.01)
                with lock:
                    state["running"] -= 1
                return i

            return PanelTask(index=i, fn=fn, cost_bytes=40,
                             headroom_bytes=40)

        with ParallelRuntime(tracker, n_workers=4) as runtime:
            runtime.run([make(i) for i in range(6)], lambda t, r: None)
        assert state["max_running"] == 1
        assert tracker.peak <= 100
        tracker.assert_all_freed()

    def test_oversized_task_raises_like_serial(self):
        tracker = MemoryTracker(limit_bytes=100)
        with ParallelRuntime(tracker, n_workers=4) as runtime:
            with pytest.raises(MemoryLimitExceeded):
                runtime.run(
                    [self._noop_task(0, cost=150)], lambda t, r: None
                )
        tracker.assert_all_freed()

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_task_error_propagates_and_frees_budget(self, n_workers):
        tracker = MemoryTracker(limit_bytes=1000)

        def boom(timer, alloc):
            raise RuntimeError("panel exploded")

        tasks = [self._noop_task(i, cost=100) for i in range(6)]
        tasks[2] = PanelTask(index=2, fn=boom, cost_bytes=100)
        with ParallelRuntime(tracker, n_workers=n_workers) as runtime:
            with pytest.raises(RuntimeError, match="panel exploded"):
                runtime.run(tasks, lambda t, r: None)
        tracker.assert_all_freed()

    def test_failed_admission_still_reports_its_wait(self):
        """Regression: ``_admit`` used to record ``scheduler_wait`` only on
        the success path, so a task that blocked and then raised (too large
        once the earlier holders drained) silently dropped its blocked time
        from the worker phase report."""
        tracker = MemoryTracker(limit_bytes=100)
        # task 0 holds 60 B long enough for task 1 to block on admission;
        # once it frees, task 1 (150 B) is alone and must raise — with the
        # accumulated wait still visible in the report
        tasks = [
            self._noop_task(0, cost=60, sleep=0.05),
            self._noop_task(1, cost=150),
        ]
        runtime = ParallelRuntime(tracker, n_workers=2)
        try:
            with pytest.raises(MemoryLimitExceeded):
                runtime.run(tasks, lambda t, r: None)
            report = runtime.report()
            waited = sum(
                phases.get("scheduler_wait", 0.0)
                for phases in report.worker_phases.values()
            )
            assert waited >= 0.04
        finally:
            runtime.close()
        tracker.assert_all_freed()

    def test_task_can_resize_its_allocation(self):
        tracker = MemoryTracker()

        def fn(timer, alloc):
            assert alloc.nbytes == 100
            alloc.resize(30)
            return "z"

        with ParallelRuntime(tracker, n_workers=1) as runtime:
            seen = []
            runtime.run(
                [PanelTask(index=0, fn=fn, cost_bytes=100)],
                lambda t, r: seen.append((r, tracker.in_use)),
            )
        # while being consumed, only the shrunk result share was charged
        assert seen == [("z", 30)]
        tracker.assert_all_freed()

    def test_worker_phase_times_and_wait_are_reported(self):
        tracker = MemoryTracker()

        def fn(timer, alloc):
            with timer.phase("sparse_solve"):
                time.sleep(0.01)
            return None

        runtime = ParallelRuntime(tracker, n_workers=2)
        runtime.run([PanelTask(index=i, fn=fn) for i in range(4)])
        report = runtime.report()
        assert report.n_workers == 2
        assert report.n_tasks == 4
        total_solve = sum(
            phases.get("sparse_solve", 0.0)
            for phases in report.worker_phases.values()
        )
        assert total_solve >= 0.04
        from repro.utils.timer import PhaseTimer

        main = PhaseTimer()
        runtime.finalize(main)
        assert main.get("sparse_solve") == pytest.approx(total_solve)

    def test_closed_runtime_rejects_runs(self):
        runtime = ParallelRuntime(MemoryTracker(), n_workers=2)
        runtime.close()
        with pytest.raises(RuntimeError):
            runtime.run([])


class TestResolveNWorkers:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_WORKERS", "7")
        assert resolve_n_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_WORKERS", "5")
        assert resolve_n_workers(None) == 5

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_N_WORKERS", raising=False)
        assert resolve_n_workers(None) == 1

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_WORKERS", "many")
        # a ReproError like the config's own n_workers check, so callers
        # catching the library's errors see it
        with pytest.raises(ConfigurationError):
            resolve_n_workers(None)
        with pytest.raises(ConfigurationError):
            SolverConfig().effective_n_workers

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(n_workers=0)
        assert SolverConfig(n_workers=4).effective_n_workers == 4
        assert SolverConfig().effective_n_workers >= 1


# ---------------------------------------------------------------------------
# end-to-end: the coupling algorithms on the runtime
# ---------------------------------------------------------------------------

class TestBitIdenticalSolutions:
    @pytest.mark.parametrize("config", [UNCOMPRESSED, COMPRESSED],
                             ids=["spido", "hmat"])
    def test_multi_solve(self, pipe_small, config):
        serial = solve_coupled(pipe_small, "multi_solve",
                               config.with_(n_workers=1))
        parallel = solve_coupled(pipe_small, "multi_solve",
                                 config.with_(n_workers=4))
        assert np.array_equal(serial.x, parallel.x)
        assert parallel.stats.n_workers == 4
        assert parallel.stats.params["n_workers"] == 4

    @pytest.mark.parametrize("config", [UNCOMPRESSED, COMPRESSED],
                             ids=["spido", "hmat"])
    def test_multi_factorization(self, pipe_small, config):
        serial = solve_coupled(pipe_small, "multi_factorization",
                               config.with_(n_workers=1))
        parallel = solve_coupled(pipe_small, "multi_factorization",
                                 config.with_(n_workers=4))
        assert np.array_equal(serial.x, parallel.x)

    def test_stats_counters_match_serial(self, pipe_small):
        serial = solve_coupled(pipe_small, "multi_solve",
                               UNCOMPRESSED.with_(n_workers=1))
        parallel = solve_coupled(pipe_small, "multi_solve",
                                 UNCOMPRESSED.with_(n_workers=4))
        assert (parallel.stats.n_sparse_solves
                == serial.stats.n_sparse_solves)
        assert (parallel.stats.n_sparse_factorizations
                == serial.stats.n_sparse_factorizations)
        assert parallel.stats.worker_phases  # breakdown was recorded


class TestMemoryBoundedExecution:
    def _run_tracked(self, problem, algorithm, config):
        """``solve_coupled`` that also hands back the run's context."""
        with CoupledFactorization(problem, algorithm, config) as fact:
            x_v, x_s = fact.solve(problem.b_v, problem.b_s)
            solution = CoupledSolution(x_v, x_s, fact.stats)
        return fact._ctx, solution

    def test_untracked_z_panel_is_now_accounted(self, pipe_small):
        """Regression: the SpMM result ``Z_i`` (n_bem × n_c) must be part
        of the solve-panel accounting, not only the solution rows ``Y_i``
        the solve returns — the volume unknowns ``A_sv`` couples to, not
        all ``n_fem``.  The seed's accounting fails this check."""
        config = UNCOMPRESSED.with_(n_workers=1)
        ctx, _ = self._run_tracked(pipe_small, "multi_solve", config)
        width = min(config.n_c, pipe_small.n_bem)
        itemsize = np.dtype(pipe_small.dtype).itemsize
        n_wanted = len(np.unique(pipe_small.a_sv.indices))
        assert n_wanted < pipe_small.n_fem
        y_and_z = (n_wanted + pipe_small.n_bem) * width * itemsize
        assert ctx.tracker.category_peak("solve_panel") == y_and_z

    @pytest.mark.parametrize("case", ["pipe_small", "aircraft_small"])
    @pytest.mark.parametrize("config", [UNCOMPRESSED, COMPRESSED],
                             ids=["spido", "hmat"])
    def test_panel_charges_stay_within_the_admitted_budgets(
            self, request, monkeypatch, case, config):
        """What a panel task charges — the ``Y`` / ``Z`` shares, the
        cluster-permuted gather, the solver's nested work vector — never
        exceeds the ``cost_bytes + headroom_bytes`` it was admitted
        with, and the memory model's panel terms bound both.  One
        worker: which panels overlap under several is scheduling."""
        from repro.core import multi_solve
        from repro.memory.model import CouplingMemoryModel, ProblemDims

        problem = request.getfixturevalue(case)
        tasks = []
        panel_task = multi_solve.PanelTask

        def recording(**kwargs):
            tasks.append(panel_task(**kwargs))
            return tasks[-1]

        monkeypatch.setattr(multi_solve, "PanelTask", recording)
        ctx, _ = self._run_tracked(
            problem, "multi_solve", config.with_(n_workers=1))
        assert len(tasks) == -(-problem.n_bem // config.n_c)
        charged = (ctx.tracker.category_peak("solve_panel")
                   + ctx.tracker.category_peak("solve_workspace"))
        assert 0 < charged <= max(t.cost_bytes + t.headroom_bytes
                                  for t in tasks)
        if config.dense_backend == "spido":
            # nothing outlives Y and Z there: the charge is the cost
            assert ctx.tracker.category_peak("solve_panel") == max(
                t.cost_bytes for t in tasks)
        comps = CouplingMemoryModel(
            itemsize=np.dtype(problem.dtype).itemsize,
            symmetric=problem.symmetric,
        ).peak_components(
            ctx.algorithm,
            ProblemDims(problem.n_total, problem.n_fem, problem.n_bem),
            n_c=config.n_c)
        assert max(t.headroom_bytes for t in tasks) <= (
            comps["solve_workspace"] + comps["spmm_panel_Z"])
        assert max(t.cost_bytes for t in tasks) <= (
            comps["solve_panel_Y"] + comps["spmm_panel_Z"])

    def test_peak_within_limit_under_four_workers(self, pipe_small):
        """A limit barely above the serial peak admits nowhere near four
        concurrent panels: admission control must block (not raise) and
        keep the tracked peak within the limit."""
        config = UNCOMPRESSED.with_(n_workers=1)
        ctx_serial, serial = self._run_tracked(
            pipe_small, "multi_solve", config
        )
        limit = int(ctx_serial.tracker.peak * 1.02)
        ctx, parallel = self._run_tracked(
            pipe_small, "multi_solve",
            config.with_(n_workers=4, memory_limit=limit),
        )
        assert ctx.tracker.peak <= limit
        assert np.array_equal(serial.x, parallel.x)
        ctx.tracker.assert_all_freed()

    @pytest.mark.parametrize("algorithm",
                             ["multi_solve", "multi_factorization"])
    @pytest.mark.parametrize("config", [UNCOMPRESSED, COMPRESSED],
                             ids=["spido", "hmat"])
    def test_all_freed_after_concurrent_run(self, pipe_small, algorithm,
                                            config):
        ctx, _ = self._run_tracked(
            pipe_small, algorithm, config.with_(n_workers=4)
        )
        ctx.tracker.assert_all_freed()

    def test_scheduler_wait_surfaces_in_stats(self, pipe_small):
        config = UNCOMPRESSED.with_(n_workers=1)
        ctx_serial, _ = self._run_tracked(pipe_small, "multi_solve", config)
        limit = int(ctx_serial.tracker.peak * 1.02)
        _, sol = self._run_tracked(
            pipe_small, "multi_solve",
            config.with_(n_workers=4, memory_limit=limit),
        )
        # the tight limit forced workers to block on admission
        assert sol.stats.scheduler_wait_seconds > 0.0
        assert "scheduler_wait" in sol.stats.phases


class TestReporting:
    def test_render_worker_breakdown(self, pipe_small):
        from repro.runner.reporting import render_worker_breakdown

        parallel = solve_coupled(pipe_small, "multi_solve",
                                 UNCOMPRESSED.with_(n_workers=2))
        text = render_worker_breakdown(parallel.stats)
        assert "worker-0" in text
        assert "scheduler_wait" in text
        serial = solve_coupled(pipe_small, "multi_solve",
                               UNCOMPRESSED.with_(n_workers=1))
        assert "serial" in render_worker_breakdown(serial.stats)
