"""Budget-aware task scheduler on a thread pool.

The runtime executes a sequence of :class:`PanelTask` units — each one an
independent, GIL-releasing chunk of solver work such as a blocked sparse
solve or one ``(i, j)`` Schur block factorization — on a persistent
:class:`~concurrent.futures.ThreadPoolExecutor`, and hands the results to
a *consumer* callback **on the caller's thread, in task order**.

Three properties the coupling algorithms rely on:

**Deterministic reduction.**  Results are consumed strictly in submission
order regardless of completion order, so folds into the (dense or
compressed) Schur container happen in the same sequence for any
``n_workers`` — solutions are bit-identical between a serial and a
parallel run.

**Budget-aware admission.**  Before a worker starts a task it *acquires*
the task's declared logical bytes (plus a reserved headroom for the nested
solver workspaces) from the shared
:class:`~repro.memory.tracker.MemoryTracker`.  When the memory limit would
be exceeded the worker **blocks** until earlier tasks release budget,
instead of raising :class:`~repro.utils.errors.MemoryLimitExceeded` — a
pool under a tight limit degrades to partial serialisation, and tracked
peak memory stays bounded by ``limit_bytes`` for every worker count.

**Ordered admission (deadlock freedom).**  Admission happens through a
turnstile in task order.  A blocked task therefore only ever waits on
budget held by *earlier* tasks, which the consumer — draining results in
the same order — is always able to free; no cyclic wait can form.  A task
too large for the limit on its own raises exactly as a serial run would.

**Bounded lookahead.**  Task ``k`` is admitted only once task
``k − n_workers`` has been consumed, so at most ``n_workers`` tasks hold
budget at any time — a finished task waiting for the in-order consume
counts as one of them.  The peak is therefore at most ``n_workers``
task budgets over the serial run's, which is what
:class:`~repro.memory.model.CouplingMemoryModel` charges.

Per-worker :class:`~repro.utils.timer.PhaseTimer` instances record where
each worker spent its time, plus a ``scheduler_wait`` phase covering
turnstile and admission blocking; :meth:`ParallelRuntime.finalize` merges
them into the run's main timer and surfaces the per-worker breakdown
through the reporting layer.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

from repro.memory.tracker import Allocation, MemoryTracker
from repro.utils.errors import ConfigurationError
from repro.utils.timer import PhaseTimer

#: Environment variable consulted when ``SolverConfig.n_workers`` is None.
N_WORKERS_ENV = "REPRO_N_WORKERS"


def resolve_n_workers(n_workers: Optional[int]) -> int:
    """Resolve a worker count: explicit value, else ``$REPRO_N_WORKERS``, else 1."""
    if n_workers is not None:
        return max(1, int(n_workers))
    env = os.environ.get(N_WORKERS_ENV, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigurationError(
                f"${N_WORKERS_ENV} must be an integer, got {env!r}"
            ) from None
    return 1


@dataclass
class PanelTask:
    """One independent unit of solver work.

    ``fn(timer, alloc)`` runs on a worker thread with the worker's
    :class:`PhaseTimer` and the task's admitted :class:`Allocation`; it may
    :meth:`~repro.memory.tracker.Allocation.resize` the allocation down as
    intermediates die (e.g. drop the solve panel once only the SpMM result
    remains).  The returned value is passed to the run's consumer on the
    caller thread; the allocation is freed after consumption.
    """

    index: int
    fn: Callable[[PhaseTimer, Allocation], Any]
    #: Logical bytes the task's own buffers occupy (charged on admission).
    cost_bytes: int = 0
    #: Estimated nested charges (solver workspaces) reserved, not charged.
    headroom_bytes: int = 0
    category: str = "solve_panel"
    label: str = ""
    #: Opaque context handed back to the consumer alongside the result.
    payload: Any = None
    #: Picklable module-level alternative to ``fn`` for the process
    #: backend: ``kernel(worker_ctx, timer, *kernel_args)`` runs in a
    #: worker process against the context shipped by the pool initializer.
    #: The thread backend ignores these fields.
    kernel: Optional[Callable] = None
    kernel_args: tuple = ()
    #: Upper bound on the task's ndarray result bytes; when positive the
    #: process backend routes the result through a shared-memory slab
    #: instead of the result pickle.
    result_nbytes: int = 0
    #: Process backend: run on the coordinator via ``fn`` after every
    #: pooled task has drained (used for a task whose side effects must
    #: stay in the coordinator process, e.g. the last multi-factorization
    #: block whose factors serve the right-hand-side solves).
    inline: bool = False


@dataclass
class RuntimeReport:
    """Aggregated execution statistics of one parallel runtime.

    Shared by the thread backend (:class:`ParallelRuntime`) and the
    process backend (:class:`~repro.runtime.process_backend
    .ProcessRuntime`).  ``run_wall_seconds`` is the coordinator wall-clock
    time spent inside :meth:`ParallelRuntime.run` calls — the
    parallelisable assembly window — which the scaling bench uses to
    measure backend speedup without the serial phases diluting it.
    """

    n_workers: int = 1
    n_tasks: int = 0
    worker_phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    scheduler_wait_seconds: float = 0.0
    run_wall_seconds: float = 0.0
    backend: str = "thread"


class ParallelRuntime:
    """Ordered, budget-aware executor of :class:`PanelTask` sequences.

    Parameters
    ----------
    tracker:
        The run's shared memory tracker; admission control charges task
        budgets against it (see module docstring).
    n_workers:
        Thread-pool width.  ``1`` (the default) executes everything on the
        caller thread with identical accounting — the serial baseline.
    name:
        Thread-name prefix, cosmetic.

    The runtime is reusable across several :meth:`run` calls (the Schur
    assembly of a coupled run makes one, through
    :func:`repro.core.schur_tools.assemble_schur`) and must be closed —
    or used as a context manager — so the pool is torn down.
    """

    def __init__(self, tracker: MemoryTracker, n_workers: int = 1,
                 name: str = "panel-runtime"):
        self.tracker = tracker
        self.n_workers = max(1, int(n_workers))
        self.name = name
        self._pool: Optional[ThreadPoolExecutor] = None
        self._timers: Dict[int, PhaseTimer] = {}  # guarded-by: _timer_lock
        self._timer_names: Dict[int, str] = {}  # guarded-by: _timer_lock
        self._timer_lock = threading.Lock()
        self._admit_cond = threading.Condition()
        self._next_admit = 0  # guarded-by: _admit_cond
        self._n_consumed = 0  # guarded-by: _admit_cond
        self._n_tasks = 0
        self._run_wall = 0.0  # coordinator-only (accumulated in run())
        self._closed = False

    # -- worker-side helpers -------------------------------------------------
    def _worker_timer(self) -> PhaseTimer:
        ident = threading.get_ident()
        with self._timer_lock:
            timer = self._timers.get(ident)
            if timer is None:
                timer = PhaseTimer()
                self._timers[ident] = timer
                self._timer_names[ident] = f"worker-{len(self._timer_names)}"
            return timer

    def _admit(self, seq: int, task: PanelTask,
               timer: PhaseTimer) -> Allocation:
        """Turnstile + budget acquisition, in task order (see module docs)."""
        t0 = time.perf_counter()
        with self._admit_cond:
            while (self._next_admit != seq
                   or seq >= self._n_consumed + self.n_workers):
                self._admit_cond.wait()
        alloc = None
        try:
            try:
                alloc = self.tracker.acquire(
                    task.cost_bytes, category=task.category, label=task.label,
                    headroom=task.headroom_bytes,
                )
            finally:
                with self._admit_cond:
                    self._next_admit = seq + 1
                    self._admit_cond.notify_all()
                # record the blocked time even when acquire raises (task too
                # large for the limit): the wait must not silently
                # vanish from the worker's phase report
                timer.add("scheduler_wait", time.perf_counter() - t0)
            return alloc
        except BaseException:
            # the turnstile hand-off in the finally above can itself raise
            # after acquire succeeded; the charge must not leak with it
            if alloc is not None:
                alloc.free()
            raise

    def _run_task(self, seq: int, task: PanelTask):
        timer = self._worker_timer()
        alloc = self._admit(seq, task, timer)
        try:
            result = task.fn(timer, alloc)
        except BaseException:
            alloc.free()
            raise
        return result, alloc

    # -- main API ------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[PanelTask],
        consume: Optional[Callable[[PanelTask, Any], None]] = None,
    ) -> None:
        """Execute ``tasks``; hand each result to ``consume`` in task order.

        ``consume`` runs on the calling thread; the task's budget is
        released right after it returns, which is what throttles how far
        ahead of the reduction the workers may run.  If a task or the
        consumer raises, the remaining futures are drained (their budgets
        freed, results discarded) before the first error is re-raised, so
        no worker is left blocked on budget that would never return.
        """
        if self._closed:
            raise RuntimeError("runtime has been closed")
        t0 = time.perf_counter()
        try:
            self._run(tasks, consume)
        finally:
            self._run_wall += time.perf_counter() - t0

    def _run(
        self,
        tasks: Sequence[PanelTask],
        consume: Optional[Callable[[PanelTask, Any], None]] = None,
    ) -> None:
        tasks = list(tasks)
        self._n_tasks += len(tasks)
        if self.n_workers == 1:
            timer = self._serial_timer()
            for task in tasks:
                alloc = self.tracker.acquire(
                    task.cost_bytes, category=task.category,
                    label=task.label, headroom=task.headroom_bytes,
                )
                try:
                    result = task.fn(timer, alloc)
                    if consume is not None:
                        consume(task, result)
                finally:
                    alloc.free()
            return

        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_workers, thread_name_prefix=self.name
            )
        with self._admit_cond:
            self._next_admit = 0
            self._n_consumed = 0
        futures = [
            self._pool.submit(self._run_task, seq, task)
            for seq, task in enumerate(tasks)
        ]
        first_error: Optional[BaseException] = None
        for task, future in zip(tasks, futures, strict=True):
            try:
                result, alloc = future.result()
            except BaseException as exc:  # noqa: BLE001 - drained and re-raised
                if first_error is None:
                    first_error = exc
                self._consumed_one()
                continue
            try:
                if first_error is None and consume is not None:
                    consume(task, result)
            except BaseException as exc:  # noqa: BLE001
                if first_error is None:
                    first_error = exc
            finally:
                alloc.free()
                self._consumed_one()
        if first_error is not None:
            raise first_error

    def _consumed_one(self) -> None:
        """Open the lookahead window by one task (see module docs)."""
        with self._admit_cond:
            self._n_consumed += 1
            self._admit_cond.notify_all()

    def _serial_timer(self) -> PhaseTimer:
        ident = -1  # stable key: the caller thread plays worker-0
        with self._timer_lock:
            timer = self._timers.get(ident)
            if timer is None:
                timer = PhaseTimer()
                self._timers[ident] = timer
                self._timer_names[ident] = "worker-0"
            return timer

    # -- reporting / lifecycle -----------------------------------------------
    @property
    def worker_phases(self) -> Dict[str, Dict[str, float]]:
        """Per-worker phase breakdown (``worker-N`` -> phase -> seconds)."""
        with self._timer_lock:
            return {
                self._timer_names[ident]: timer.phases
                for ident, timer in self._timers.items()
            }

    @property
    def scheduler_wait_seconds(self) -> float:
        """Total time workers spent in the turnstile / blocked on budget."""
        return sum(
            phases.get("scheduler_wait", 0.0)
            for phases in self.worker_phases.values()
        )

    def report(self) -> RuntimeReport:
        return RuntimeReport(
            n_workers=self.n_workers,
            n_tasks=self._n_tasks,
            worker_phases=self.worker_phases,
            scheduler_wait_seconds=self.scheduler_wait_seconds,
            run_wall_seconds=self._run_wall,
            backend="thread",
        )

    def finalize(self, main_timer: PhaseTimer) -> RuntimeReport:
        """Merge worker timers into ``main_timer``, close the pool.

        The merged phase totals are *worker time* (they sum across
        workers), keeping the existing phase reports meaningful: the same
        arithmetic work is accounted no matter how many threads did it.
        """
        report = self.report()
        for phases in report.worker_phases.values():
            for phase_name, seconds in phases.items():
                if seconds > 0.0:
                    main_timer.add(phase_name, seconds)
        self.close()
        return report

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._closed = True

    def __enter__(self) -> "ParallelRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
