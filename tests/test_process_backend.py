"""Tests of the process-pool execution backend (:mod:`repro.runtime`).

Covers backend resolution (config / environment / CLI plumbing), the
coordinator-side scheduler mechanics (ordered consume, budget-aware
admission with drain-and-retry, shared-memory result slabs, error
propagation), and end-to-end backend parity: the ``process`` backend must
produce byte-identical Schur complements, solutions and — at
``n_workers=1`` — tracker peaks compared to the default ``thread``
backend, for both coupling algorithms and both dense backends.

Runs under the lock-order watchdog (see ``conftest.py``): the process
backend must not introduce any new lock ordering on the coordinator.
"""

from __future__ import annotations

import time
from unittest import mock

import numpy as np
import pytest

from repro.core.config import SolverConfig
from repro.core.factorized import CoupledFactorization
from repro.core.result import CoupledSolution
from repro.core.schur_tools import DenseSchurContainer
from repro.memory.tracker import MemoryTracker
from repro.runtime import (
    PanelTask,
    ProcessRuntime,
    RUNTIME_BACKEND_ENV,
    make_runtime,
    resolve_runtime_backend,
)
from repro.utils.errors import ConfigurationError, MemoryLimitExceeded

UNCOMPRESSED = SolverConfig(dense_backend="spido", n_c=64, n_b=2)
COMPRESSED = SolverConfig(dense_backend="hmat", n_c=64, n_s_block=192, n_b=2)


# ---------------------------------------------------------------------------
# backend resolution
# ---------------------------------------------------------------------------

class TestResolveBackend:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv(RUNTIME_BACKEND_ENV, "process")
        assert resolve_runtime_backend("thread") == "thread"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(RUNTIME_BACKEND_ENV, "process")
        assert resolve_runtime_backend(None) == "process"

    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv(RUNTIME_BACKEND_ENV, raising=False)
        assert resolve_runtime_backend(None) == "thread"

    def test_invalid_values_raise(self, monkeypatch):
        # "auto" was a value once; it now fails like any other unknown name
        for name in ("greenlet", "auto"):
            with pytest.raises(ConfigurationError):
                resolve_runtime_backend(name)
        monkeypatch.setenv(RUNTIME_BACKEND_ENV, "fiber")
        with pytest.raises(ConfigurationError):
            resolve_runtime_backend(None)

    def test_config_validation(self, monkeypatch):
        for name in ("greenlet", "auto"):
            with pytest.raises(ConfigurationError):
                SolverConfig(runtime_backend=name)
        monkeypatch.delenv(RUNTIME_BACKEND_ENV, raising=False)
        assert SolverConfig().effective_runtime_backend == "thread"
        cfg = SolverConfig(runtime_backend="process")
        assert cfg.effective_runtime_backend == "process"

    def test_make_runtime_dispatches(self):
        from repro.runtime import ParallelRuntime

        tracker = MemoryTracker()
        with make_runtime(tracker, 1, "t", backend="thread") as runtime:
            assert isinstance(runtime, ParallelRuntime)
        with make_runtime(tracker, 1, "p", backend="process") as runtime:
            assert isinstance(runtime, ProcessRuntime)


# ---------------------------------------------------------------------------
# coordinator scheduler mechanics (module-level kernels: picklable)
# ---------------------------------------------------------------------------

def _index_kernel(ctx, timer, index, delay):
    if delay:
        time.sleep(delay)
    with timer.phase("sparse_solve"):
        pass
    return index


def _array_kernel(ctx, timer, lo, hi):
    return np.arange(lo, hi, dtype=np.float64) * ctx["scale"]


def _pair_kernel(ctx, timer, n):
    return n, np.full(n, float(n))


def _boom_kernel(ctx, timer, index):
    raise RuntimeError("panel exploded")


def _task(index, kernel, args, cost=0, result_nbytes=0, sleep=0.0):
    return PanelTask(index=index, fn=None, cost_bytes=cost,
                     label=f"task {index}", kernel=kernel,
                     kernel_args=args, result_nbytes=result_nbytes)


class TestProcessScheduler:
    def test_consumption_is_in_task_order(self):
        # later tasks finish first: consumption must stay submission order
        tracker = MemoryTracker()
        seen = []
        tasks = [
            _task(i, _index_kernel, (i, 0.02 * (5 - i))) for i in range(5)
        ]
        with ProcessRuntime(tracker, n_workers=2) as runtime:
            runtime.run(tasks, lambda task, result: seen.append(result))
        assert seen == list(range(5))
        tracker.assert_all_freed()

    def test_array_results_round_trip_through_slabs(self):
        tracker = MemoryTracker()
        payload = {"scale": 3.0}
        nbytes = 64 * 8
        seen = []
        tasks = [
            _task(i, _array_kernel, (i * 64, (i + 1) * 64),
                  result_nbytes=nbytes)
            for i in range(6)
        ]
        with ProcessRuntime(tracker, n_workers=2,
                            worker_payload=payload) as runtime:
            runtime.run(tasks,
                        lambda task, result: seen.append(result.copy()))
        for i, arr in enumerate(seen):
            expected = np.arange(i * 64, (i + 1) * 64, dtype=np.float64) * 3.0
            assert np.array_equal(arr, expected)
        tracker.assert_all_freed()

    def test_tuple_results_ship_one_array_in_the_slab(self):
        tracker = MemoryTracker()
        seen = []
        tasks = [_task(i, _pair_kernel, (32,), result_nbytes=32 * 8)
                 for i in range(4)]
        with ProcessRuntime(tracker, n_workers=2) as runtime:
            runtime.run(
                tasks, lambda task, r: seen.append((r[0], r[1].copy()))
            )
        assert [n for n, _arr in seen] == [32] * 4
        assert all(np.array_equal(arr, np.full(32, 32.0))
                   for _n, arr in seen)
        tracker.assert_all_freed()

    def test_undersized_slab_hint_falls_back_to_pickle(self):
        # hint says 8 bytes, the result is 512: the worker must ship the
        # array in the result pickle rather than corrupt the slab
        tracker = MemoryTracker()
        payload = {"scale": 1.0}
        seen = []
        tasks = [_task(0, _array_kernel, (0, 64), result_nbytes=8)]
        with ProcessRuntime(tracker, n_workers=2,
                            worker_payload=payload) as runtime:
            runtime.run(tasks, lambda task, r: seen.append(r.copy()))
        assert np.array_equal(seen[0], np.arange(64, dtype=np.float64))
        tracker.assert_all_freed()

    def test_budget_admission_keeps_peak_within_limit(self):
        # 8 tasks of 40 B under a 100 B limit: the coordinator may only
        # have two outstanding at once and must drain to admit more
        tracker = MemoryTracker(limit_bytes=100)
        seen = []
        tasks = [_task(i, _index_kernel, (i, 0.01), cost=40)
                 for i in range(8)]
        with ProcessRuntime(tracker, n_workers=4) as runtime:
            runtime.run(tasks, lambda task, result: seen.append(result))
            report = runtime.report()
        assert seen == list(range(8))
        assert tracker.peak <= 100
        assert report.backend == "process"
        assert "coordinator" in report.worker_phases
        tracker.assert_all_freed()

    def test_oversized_task_raises_like_serial(self):
        tracker = MemoryTracker(limit_bytes=100)
        with ProcessRuntime(tracker, n_workers=2) as runtime:
            with pytest.raises(MemoryLimitExceeded):
                runtime.run([_task(0, _index_kernel, (0, 0.0), cost=150)])
            # the failed admission must still be on the books
            assert runtime.scheduler_wait_seconds >= 0.0
            assert "scheduler_wait" in runtime.worker_phases["coordinator"]
        tracker.assert_all_freed()

    def test_task_error_propagates_and_frees_budget(self):
        tracker = MemoryTracker(limit_bytes=1000)
        tasks = [_task(i, _index_kernel, (i, 0.0), cost=100)
                 for i in range(6)]
        tasks[2] = _task(2, _boom_kernel, (2,), cost=100)
        with ProcessRuntime(tracker, n_workers=2) as runtime:
            with pytest.raises(RuntimeError, match="panel exploded"):
                runtime.run(tasks, lambda t, r: None)
        tracker.assert_all_freed()

    def test_worker_phases_report_per_process_totals(self):
        tracker = MemoryTracker()
        tasks = [_task(i, _index_kernel, (i, 0.0)) for i in range(6)]
        runtime = ProcessRuntime(tracker, n_workers=2)
        runtime.run(tasks, lambda t, r: None)
        report = runtime.report()
        workers = [k for k in report.worker_phases if k.startswith("worker-")]
        assert 1 <= len(workers) <= 2
        from repro.utils.timer import PhaseTimer

        main = PhaseTimer()
        runtime.finalize(main)
        assert main.get("scheduler_wait") >= 0.0

    def test_serial_width_runs_local_fns(self):
        # n_workers=1 executes task.fn on the coordinator: identical
        # accounting to the thread backend's serial path, no pool at all
        tracker = MemoryTracker()
        seen = []

        def fn(timer, alloc):
            assert alloc.nbytes == 10
            return "local"

        task = PanelTask(index=0, fn=fn, cost_bytes=10)
        with ProcessRuntime(tracker, n_workers=1) as runtime:
            runtime.run([task], lambda t, r: seen.append(r))
            assert runtime._pool is None
        assert seen == ["local"]
        tracker.assert_all_freed()

    def test_inline_tasks_must_trail_pooled_tasks(self):
        tracker = MemoryTracker()
        tasks = [
            PanelTask(index=0, fn=lambda t, a: None, inline=True),
            _task(1, _index_kernel, (1, 0.0)),
        ]
        with ProcessRuntime(tracker, n_workers=2) as runtime:
            with pytest.raises(RuntimeError, match="inline"):
                runtime.run(tasks)
        tracker.assert_all_freed()

    def test_kernelless_task_is_rejected_by_the_pool(self):
        tracker = MemoryTracker()
        task = PanelTask(index=0, fn=lambda t, a: None)
        with ProcessRuntime(tracker, n_workers=2) as runtime:
            with pytest.raises(RuntimeError, match="kernel"):
                runtime.run([task])
        tracker.assert_all_freed()

    def test_closed_runtime_rejects_runs(self):
        runtime = ProcessRuntime(MemoryTracker(), n_workers=2)
        runtime.close()
        with pytest.raises(RuntimeError):
            runtime.run([])


# ---------------------------------------------------------------------------
# end-to-end backend parity
# ---------------------------------------------------------------------------

def _assemble_and_solve(problem, algorithm, config):
    """Run one coupled solve, returning ``(S_dense, solution, ctx)`` with
    the Schur complement densified for bitwise comparison: a dense ``S``
    as assembled (its buffer then holds its factors), a compressed one as
    factored."""
    assembled = []
    factorize = DenseSchurContainer.factorize

    def snapshot(container, tracker):
        assembled.append(container.s.copy())
        factorize(container, tracker)

    with mock.patch.object(DenseSchurContainer, "factorize", snapshot), \
            CoupledFactorization(problem, algorithm, config) as fact:
        s_dense = (assembled[0] if assembled
                   else fact._container.s.to_dense())
        x_v, x_s = fact.solve(problem.b_v, problem.b_s)
        solution = CoupledSolution(x_v, x_s, fact.stats,
                                   problem.relative_error(x_v, x_s))
    return s_dense, solution, fact._ctx


class TestBackendParity:
    """thread vs process: byte-identical S, solutions and (serial) peaks."""

    _baselines: dict = {}

    def _thread_run(self, problem, algorithm, config_id, config, n_workers):
        key = (algorithm, config_id, n_workers)
        if key not in self._baselines:
            self._baselines[key] = _assemble_and_solve(
                problem, algorithm,
                config.with_(n_workers=n_workers, runtime_backend="thread"),
            )
        return self._baselines[key]

    @pytest.mark.parametrize("n_workers", [1, 4])
    @pytest.mark.parametrize("algorithm",
                             ["multi_solve", "multi_factorization"])
    @pytest.mark.parametrize("config", [UNCOMPRESSED, COMPRESSED],
                             ids=["spido", "hmat"])
    def test_s_and_solution_are_byte_identical(self, pipe_small, algorithm,
                                               config, n_workers):
        config_id = config.dense_backend
        s_thread, sol_thread, ctx_thread = self._thread_run(
            pipe_small, algorithm, config_id, config, n_workers
        )
        s_proc, sol_proc, ctx_proc = _assemble_and_solve(
            pipe_small, algorithm,
            config.with_(n_workers=n_workers, runtime_backend="process"),
        )
        assert np.array_equal(s_thread, s_proc)
        assert np.array_equal(sol_thread.x, sol_proc.x)
        assert sol_proc.stats.params["runtime_backend"] == "process"
        assert sol_thread.stats.params["runtime_backend"] == "thread"
        if n_workers == 1:
            # the serial paths of both backends charge identically: the
            # tracked peaks must agree to the byte
            assert ctx_thread.tracker.peak == ctx_proc.tracker.peak
        ctx_proc.tracker.assert_all_freed()

    def test_sparse_counters_match_thread_backend(self, pipe_small):
        _, sol_thread, _ = self._thread_run(
            pipe_small, "multi_solve", "spido", UNCOMPRESSED, 4
        )
        _, sol_proc, _ = _assemble_and_solve(
            pipe_small, "multi_solve",
            UNCOMPRESSED.with_(n_workers=4, runtime_backend="process"),
        )
        assert (sol_proc.stats.n_sparse_solves
                == sol_thread.stats.n_sparse_solves)
        assert (sol_proc.stats.n_sparse_factorizations
                == sol_thread.stats.n_sparse_factorizations)
        assert sol_proc.stats.worker_phases
        assert sol_proc.stats.runtime_wall_seconds > 0.0


class TestMultiSolveOnEveryRuntime:
    """Multi-solve cuts its panels as the Schur container says and asks
    the sparse solve for the rows those panels read; the thread closure
    and the process kernels share that one helper, so ``S`` and the
    solution are the same bits on 1 worker, 4 threads and 4 processes."""

    @pytest.mark.parametrize("case", ["pipe_small", "aircraft_small"])
    @pytest.mark.parametrize("config", [
        UNCOMPRESSED, COMPRESSED, COMPRESSED.with_(n_s_block=COMPRESSED.n_c),
    ], ids=["spido", "hmat", "hmat-immediate"])
    def test_s_and_solution_are_byte_identical(self, request, case, config):
        problem = request.getfixturevalue(case)
        if not problem.symmetric:  # complex: the gate the aircraft tests use
            config = config.with_(epsilon=1e-4)
        runs = [
            _assemble_and_solve(
                problem, "multi_solve",
                config.with_(n_workers=n_workers, runtime_backend=backend),
            )
            for n_workers, backend in ((1, "thread"), (4, "thread"),
                                       (4, "process"))
        ]
        s_ref, sol_ref, _ = runs[0]
        assert sol_ref.relative_error < config.epsilon
        for s, sol, ctx in runs:
            assert np.array_equal(s, s_ref)
            assert np.array_equal(sol.x_v, sol_ref.x_v)
            assert np.array_equal(sol.x_s, sol_ref.x_s)
            assert sol.stats.n_sparse_solves == sol_ref.stats.n_sparse_solves
            ctx.tracker.assert_all_freed()


class TestSymmetricMultiFactorization:
    """One triangle of ``W`` blocks on a symmetric system: every ``X_ij``
    with ``j < i`` is folded in twice (itself and its transpose view), and
    an ``n_s`` no block count divides makes the off-diagonal blocks padded
    (``k_i ≠ k_j``)."""

    @pytest.fixture(scope="class")
    def pipe_odd(self):
        from repro.fembem import generate_pipe_case

        problem = generate_pipe_case(1_301, seed=7)
        assert problem.symmetric
        assert problem.n_bem % 2 and problem.n_bem % 3
        return problem

    @pytest.mark.parametrize("n_b", [1, 2, 3])
    @pytest.mark.parametrize("config", [UNCOMPRESSED, COMPRESSED],
                             ids=["spido", "hmat"])
    def test_padded_blocks_on_every_runtime(self, pipe_odd, config, n_b):
        p = pipe_odd
        runs = [
            _assemble_and_solve(
                p, "multi_factorization",
                config.with_(n_b=n_b, n_workers=n_workers,
                             runtime_backend=backend),
            )
            for n_workers, backend in ((1, "thread"), (4, "thread"),
                                       (4, "process"))
        ]
        s_ref, sol_ref, _ = runs[0]
        for s, sol, ctx in runs:
            assert sol.stats.n_sparse_factorizations == n_b * (n_b + 1) // 2
            assert np.array_equal(s, s_ref)
            assert np.array_equal(sol.x, sol_ref.x)
            ctx.tracker.assert_all_freed()
        # S stays a full symmetric matrix: mirrored blocks are exact copies,
        # a diagonal block is symmetric to the rounding of its LDLᵀ update
        from repro.core.multi_factorization import _surface_blocks

        blocks = _surface_blocks(p.n_bem, n_b)
        for i in range(n_b):
            for j in range(i):
                assert np.array_equal(s_ref[np.ix_(blocks[i], blocks[j])],
                                      s_ref[np.ix_(blocks[j], blocks[i])].T)
        np.testing.assert_allclose(s_ref, s_ref.T, rtol=0,
                                   atol=1e-14 * np.abs(s_ref).max())
        # backward error against the uncompressed operator
        x_v, x_s = sol_ref.x_v, sol_ref.x_s
        r_v = p.b_v - (p.a_vv @ x_v + p.a_sv.T @ x_s)
        r_s = p.b_s - (p.a_sv @ x_v + p.a_ss_op.matvec(x_s))
        err = np.sqrt(
            (np.linalg.norm(r_v) ** 2 + np.linalg.norm(r_s) ** 2)
            / (np.linalg.norm(p.b_v) ** 2 + np.linalg.norm(p.b_s) ** 2))
        assert err <= config.epsilon


class TestMemoryBoundedProcessExecution:
    def test_peak_within_limit_under_four_workers(self, pipe_small):
        """A limit barely above the serial peak cannot fit four concurrent
        panels: the coordinator must drain-and-retry (not raise) and keep
        the tracked peak within the limit, bit-identical solutions included."""
        config = UNCOMPRESSED.with_(n_workers=1, runtime_backend="process")
        _, serial, ctx_serial = _assemble_and_solve(
            pipe_small, "multi_solve", config
        )
        limit = int(ctx_serial.tracker.peak * 1.02)
        _, bounded, ctx = _assemble_and_solve(
            pipe_small, "multi_solve",
            config.with_(n_workers=4, memory_limit=limit),
        )
        assert ctx.tracker.peak <= limit
        assert np.array_equal(serial.x, bounded.x)
        ctx.tracker.assert_all_freed()
