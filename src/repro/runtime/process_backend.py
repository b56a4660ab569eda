"""Process-pool execution backend for the panel runtime.

The thread backend (:class:`~repro.runtime.scheduler.ParallelRuntime`)
relies on the NumPy/SciPy kernels releasing the GIL; pure-Python phases of
a task (sparse front assembly, plan bookkeeping) still serialize on it.
:class:`ProcessRuntime` runs the same :class:`~repro.runtime.scheduler
.PanelTask` sequences on a :class:`concurrent.futures.ProcessPoolExecutor`
instead, so every panel kernel executes truly concurrently.  The contract
the coupling algorithms rely on is preserved exactly:

**Coordinator-side accounting.**  Worker processes never see the run's
:class:`~repro.memory.tracker.MemoryTracker`.  The coordinator admits each
task *before* submitting it — charging ``cost_bytes`` and reserving
``headroom_bytes`` exactly as the thread backend's turnstile does — and
frees the budget after the ordered ``consume``.  When a non-blocking
admission hits the limit the coordinator drains the oldest outstanding
result first (which frees budget the same way an earlier thread-backend
task would), so ``limit_bytes`` semantics and the deadlock-freedom
argument are unchanged; a task too large for the limit on its own raises
exactly as a serial run would.  As on threads, at most ``n_workers``
tasks are outstanding: the coordinator consumes the oldest before it
admits one more, so the peak is the same ``n_workers`` task budgets.

**Ordered, deterministic consume.**  Tasks are submitted and consumed in
index order on the caller's thread, so folds into the Schur container
happen in the same sequence for any worker count and any backend —
solutions are bit-identical (given the same BLAS threading; see
``docs/scaling.md`` §11).

**Shared-memory results.**  Large ndarray results travel through a pool of
coordinator-owned :class:`multiprocessing.shared_memory.SharedMemory`
slabs instead of the result pickle: the worker writes the panel into its
assigned slab and returns only a small descriptor; the coordinator hands
the consumer a zero-copy view.  Task *inputs* are shipped once per worker
through the pool initializer (the factorization, the coupling matrices,
the HODLR structure skeleton), so per-task pickles carry only scalars.

**BLAS pinning.**  The coordinator sets the usual BLAS thread-count
environment variables to ``blas_threads`` (default ``cores // n_workers``,
so ``n_workers × blas_threads ≤ cores``) around the pool's lifetime, and
each worker additionally applies :mod:`threadpoolctl` limits when that
package is importable.  With the default ``fork`` start method an already
initialised parent BLAS keeps its own thread count — export
``OMP_NUM_THREADS`` before starting Python when exact thread parity with
the thread backend matters (the CI lanes do).

Workers are single-threaded and the coordinator runs on one thread, so
this backend introduces **no new lock ordering** — the only locks taken
are the tracker's ``_cond`` and the timers' ``_lock``, already in
``LOCK_HIERARCHY``.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context, shared_memory
from typing import Any, Callable, Dict, Optional, Sequence

import numpy as np

from repro.memory.tracker import MemoryTracker
from repro.runtime.scheduler import PanelTask, RuntimeReport
from repro.utils.errors import ConfigurationError, MemoryLimitExceeded
from repro.utils.timer import PhaseTimer

#: Environment variable consulted when ``SolverConfig.runtime_backend`` is None.
RUNTIME_BACKEND_ENV = "REPRO_RUNTIME_BACKEND"
#: Multiprocessing start method override (default: ``fork`` where available).
START_METHOD_ENV = "REPRO_PROCESS_START_METHOD"

RUNTIME_BACKENDS = ("thread", "process")

_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def resolve_runtime_backend(backend: Optional[str] = None) -> str:
    """Resolve a backend name: explicit value, else ``$REPRO_RUNTIME_BACKEND``,
    else ``"thread"``."""
    if backend is None:
        backend = os.environ.get(RUNTIME_BACKEND_ENV, "").strip() or "thread"
    backend = str(backend).strip().lower()
    if backend not in RUNTIME_BACKENDS:
        raise ConfigurationError(
            f"runtime backend must be one of {RUNTIME_BACKENDS}, got {backend!r}"
        )
    return backend


# -- worker-process side --------------------------------------------------------
#
# One module-level state dict per worker process, populated by the pool
# initializer: the algorithm-specific context (shipped once, pickled), the
# worker's PhaseTimer and its cache of attached result slabs.

_worker_state: Dict[str, Any] = {}


def _pin_blas_threads(n_threads: int) -> None:
    for var in _BLAS_ENV_VARS:
        os.environ[var] = str(n_threads)
    try:  # optional: not shipped in every environment
        import threadpoolctl

        threadpoolctl.threadpool_limits(n_threads)
    except Exception:  # noqa: BLE001 - pinning is best-effort by design
        pass


def _worker_init(payload_bytes: bytes, builder: Optional[Callable[[Any], Any]],
                 blas_threads: int) -> None:
    _pin_blas_threads(blas_threads)
    payload = pickle.loads(payload_bytes)
    _worker_state["ctx"] = builder(payload) if builder is not None else payload
    _worker_state["timer"] = PhaseTimer()
    _worker_state["slabs"] = {}


def _attach_slab(name: str) -> shared_memory.SharedMemory:
    slabs = _worker_state["slabs"]
    slab = slabs.get(name)
    if slab is None:
        # attaching (create=False) does not register with the resource
        # tracker — the coordinator owns and unlinks every slab
        slab = shared_memory.SharedMemory(name=name)
        slabs[name] = slab
    return slab


def _export_array(arr: np.ndarray, slab_name: str):
    slab = _attach_slab(slab_name)
    if arr.nbytes > slab.size:  # hint was too small: fall back to pickling
        return ("obj", arr)
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=slab.buf)
    view[...] = arr
    del view
    return ("shm", slab_name, arr.shape, arr.dtype.str)


def _export_result(result: Any, slab_name: Optional[str]):
    """Descriptor for one task result (at most one array goes to the slab)."""
    if slab_name is not None:
        if isinstance(result, np.ndarray):
            return _export_array(result, slab_name)
        if isinstance(result, tuple):
            items, used = [], False
            for item in result:
                if not used and isinstance(item, np.ndarray):
                    items.append(_export_array(item, slab_name))
                    used = True
                else:
                    items.append(("obj", item))
            return ("tuple", items)
    return ("obj", result)


def _import_result(meta, slabs: Dict[str, shared_memory.SharedMemory]):
    kind = meta[0]
    if kind == "obj":
        return meta[1]
    if kind == "shm":
        _, name, shape, dtype = meta
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=slabs[name].buf)
    if kind == "tuple":
        return tuple(_import_result(item, slabs) for item in meta[1])
    raise AssertionError(f"unknown result descriptor {kind!r}")


def _worker_run(kernel: Callable, args: tuple, slab_name: Optional[str]):
    """Execute one kernel in the worker; returns ``(pid, phases, descriptor)``.

    ``phases`` is the worker timer's *cumulative* snapshot — the
    coordinator keeps the latest snapshot per pid, so per-worker totals
    survive whichever task happens to report last.
    """
    timer: PhaseTimer = _worker_state["timer"]
    result = kernel(_worker_state["ctx"], timer, *args)
    meta = _export_result(result, slab_name)
    del result
    return os.getpid(), timer.phases, meta


# -- coordinator side -----------------------------------------------------------


class _SlabPool:
    """Coordinator-owned pool of shared-memory result slabs.

    Slots are equal-sized (the largest ``result_nbytes`` hint of the run);
    a slot is assigned to a task at submit time and returned to the pool
    once the ordered consume has read the result.  The pool may only grow
    between runs, when every slot is free.
    """

    def __init__(self) -> None:
        self.slabs: Dict[str, shared_memory.SharedMemory] = {}
        self._free: deque = deque()
        self.slot_bytes = 0

    def ensure(self, slot_bytes: int, n_slots: int) -> None:
        if slot_bytes <= self.slot_bytes and len(self.slabs) >= n_slots:
            return
        if len(self._free) != len(self.slabs):
            raise RuntimeError("cannot resize the slab pool mid-run")
        slot_bytes = max(slot_bytes, self.slot_bytes)
        n_slots = max(n_slots, len(self.slabs))
        self.close()
        self.slot_bytes = slot_bytes
        for _ in range(n_slots):
            slab = shared_memory.SharedMemory(
                create=True, size=max(1, slot_bytes)
            )
            self.slabs[slab.name] = slab
            self._free.append(slab.name)

    def acquire(self) -> Optional[str]:
        if not self._free:
            return None
        return self._free.popleft()

    def release(self, name: str) -> None:
        self._free.append(name)

    def close(self) -> None:
        for slab in self.slabs.values():
            try:
                slab.close()
            except BufferError:
                # a stray exported view outlived consume; the mapping
                # cannot be reclaimed until that view dies, so say so
                # instead of hiding the leak
                warnings.warn(
                    f"shared-memory slab {slab.name!r} still has live "
                    "views at pool close; its mapping leaks until they "
                    "are garbage-collected",
                    ResourceWarning,
                    stacklevel=2,
                )
            try:
                slab.unlink()
            except FileNotFoundError:
                pass
        self.slabs.clear()
        self._free.clear()
        self.slot_bytes = 0


class ProcessRuntime:
    """Ordered, budget-aware executor of :class:`PanelTask` sequences on a
    process pool (see module docstring for the execution contract).

    Parameters
    ----------
    tracker:
        The run's shared memory tracker.  All charging happens on the
        coordinator; workers never see it.
    n_workers:
        Pool width.  ``1`` executes every task's ``fn`` on the caller
        thread with accounting identical to the thread backend's serial
        path (bit-identical peaks included).
    worker_payload:
        Picklable context shipped once to every worker through the pool
        initializer (e.g. the stripped sparse factorization, the coupling
        matrices, an HODLR structure skeleton).
    worker_builder:
        Optional module-level callable turning the unpickled payload into
        the kernel context (e.g. constructing a per-process sparse solver);
        ``None`` passes the payload through unchanged.
    blas_threads:
        BLAS threads per worker; default ``max(1, cores // n_workers)``.
    """

    def __init__(self, tracker: MemoryTracker, n_workers: int = 1,
                 name: str = "panel-runtime", worker_payload: Any = None,
                 worker_builder: Optional[Callable[[Any], Any]] = None,
                 blas_threads: Optional[int] = None):
        self.tracker = tracker
        self.n_workers = max(1, int(n_workers))
        self.name = name
        self._payload = worker_payload
        self._builder = worker_builder
        if blas_threads is None:
            blas_threads = max(1, (os.cpu_count() or 1) // self.n_workers)
        self.blas_threads = max(1, int(blas_threads))
        self._pool: Optional[ProcessPoolExecutor] = None
        self._slabs = _SlabPool()
        self._proc_phases: Dict[int, Dict[str, float]] = {}
        # records the coordinator's admission waits plus any serial /
        # inline task phases; merged at finalize like a worker timer
        self._coord_timer = PhaseTimer()
        self._n_tasks = 0
        self._run_wall = 0.0
        self._saved_env: Optional[Dict[str, Optional[str]]] = None
        self._closed = False

    # -- pool lifecycle ------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            method = os.environ.get(START_METHOD_ENV, "").strip() or "fork"
            # pin worker BLAS through the environment while the pool may
            # still spawn processes; restored at close().  The parent's
            # already-initialised BLAS is unaffected (env is read at
            # library load).
            self._saved_env = {v: os.environ.get(v) for v in _BLAS_ENV_VARS}
            for var in _BLAS_ENV_VARS:
                os.environ[var] = str(self.blas_threads)
            payload_bytes = pickle.dumps(
                self._payload, protocol=pickle.HIGHEST_PROTOCOL
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=get_context(method),
                initializer=_worker_init,
                initargs=(payload_bytes, self._builder, self.blas_threads),
            )
        return self._pool

    # -- main API ------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[PanelTask],
        consume: Optional[Callable[[PanelTask, Any], None]] = None,
    ) -> None:
        """Execute ``tasks``; hand each result to ``consume`` in task order."""
        if self._closed:
            raise RuntimeError("runtime has been closed")
        t0 = time.perf_counter()
        try:
            self._run(list(tasks), consume)
        finally:
            self._run_wall += time.perf_counter() - t0

    def _run(self, tasks, consume) -> None:
        self._n_tasks += len(tasks)
        if self.n_workers == 1:
            for task in tasks:
                self._run_local(task, consume)
            return
        pooled = [t for t in tasks if not t.inline]
        inline = [t for t in tasks if t.inline]
        if inline and pooled and (
            min(t.index for t in inline) < max(t.index for t in pooled)
        ):
            raise RuntimeError(
                "inline tasks must come after every pooled task: the "
                "coordinator runs them once the pool has drained"
            )
        for task in pooled:
            if task.kernel is None:
                raise RuntimeError(
                    f"task {task.label!r} has no picklable kernel for the "
                    "process backend (set PanelTask.kernel/kernel_args)"
                )
        pool = self._ensure_pool()
        max_result = max((t.result_nbytes for t in pooled), default=0)
        if max_result > 0:
            self._slabs.ensure(max_result, 2 * self.n_workers)
        pending: deque = deque()  # (task, future, alloc, slab_name)
        try:
            for task in pooled:
                # bounded lookahead, as on the thread backend
                while len(pending) >= self.n_workers:
                    self._consume_one(pending.popleft(), consume)
                alloc, slab_name = self._admit(task, pending, consume)
                try:
                    future = pool.submit(
                        _worker_run, task.kernel, task.kernel_args, slab_name
                    )
                except BaseException:
                    # a submit that never produced a future is not in
                    # `pending`, so the drain below cannot settle it
                    if slab_name is not None:
                        self._slabs.release(slab_name)
                    alloc.free()
                    raise
                pending.append((task, future, alloc, slab_name))
            while pending:
                self._consume_one(pending.popleft(), consume)
        except BaseException:
            # drain remaining futures: free budgets and slabs, discard
            # results, so nothing leaks past the first error
            while pending:
                _task, future, alloc, slab_name = pending.popleft()
                try:
                    future.result()
                except BaseException:  # noqa: BLE001 - first error wins
                    pass
                if slab_name is not None:
                    self._slabs.release(slab_name)
                alloc.free()
            raise
        for task in inline:
            self._run_local(task, consume)

    def _admit(self, task: PanelTask, pending: deque, consume):
        """Coordinator-side admission: charge the task's budget (and claim a
        result slab) before submission, draining the oldest outstanding
        result whenever either is exhausted — the ordered-admission
        discipline of the thread backend, run by the coordinator."""
        alloc = None
        slab_name = None
        try:
            t0 = time.perf_counter()
            try:
                while True:
                    try:
                        alloc = self.tracker.acquire(
                            task.cost_bytes, category=task.category,
                            label=task.label, headroom=task.headroom_bytes,
                            block=False,
                        )
                        break
                    except MemoryLimitExceeded:
                        if not pending:
                            # nothing left to drain: raise exactly as the
                            # serial path would for an oversize task
                            raise
                        self._consume_one(pending.popleft(), consume)
                if task.result_nbytes > 0:
                    while True:
                        slab_name = self._slabs.acquire()
                        if slab_name is not None:
                            break
                        # every slab is held by an outstanding result; the
                        # pool holds >= 2 slots, so pending cannot be empty
                        self._consume_one(pending.popleft(), consume)
                return alloc, slab_name
            finally:
                self._coord_timer.add(
                    "scheduler_wait", time.perf_counter() - t0
                )
        except BaseException:
            # the budget charge (and slab claim) must not outlive a failed
            # admission: a drain raising mid-loop — or even the timer
            # bookkeeping in the finally above — would otherwise leak the
            # charge for the rest of the factorization
            try:
                if slab_name is not None:
                    self._slabs.release(slab_name)
            finally:
                if alloc is not None:
                    alloc.free()
            raise

    def _consume_one(self, entry, consume) -> None:
        task, future, alloc, slab_name = entry
        try:
            pid, phases, meta = future.result()
        except BaseException:
            if slab_name is not None:
                self._slabs.release(slab_name)
            alloc.free()
            raise
        self._proc_phases[pid] = dict(phases)
        result = None
        try:
            result = _import_result(meta, self._slabs.slabs)
            if consume is not None:
                consume(task, result)
        finally:
            # drop the shm view before the slab can be reassigned
            result = None  # noqa: F841
            if slab_name is not None:
                self._slabs.release(slab_name)
            alloc.free()

    def _run_local(self, task: PanelTask, consume) -> None:
        """Serial / inline execution on the coordinator via ``task.fn`` —
        accounting identical to the thread backend's serial path."""
        if task.fn is None:
            raise RuntimeError(
                f"task {task.label!r} has no local fn for serial execution"
            )
        alloc = self.tracker.acquire(
            task.cost_bytes, category=task.category, label=task.label,
            headroom=task.headroom_bytes,
        )
        try:
            result = task.fn(self._coord_timer, alloc)
            if consume is not None:
                consume(task, result)
        finally:
            alloc.free()

    # -- reporting / lifecycle -----------------------------------------------
    @property
    def worker_phases(self) -> Dict[str, Dict[str, float]]:
        """Per-worker phase breakdown; the coordinator's admission waits
        and inline-task phases appear under ``"coordinator"``."""
        out = {
            f"worker-{n}": dict(self._proc_phases[pid])
            for n, pid in enumerate(sorted(self._proc_phases))
        }
        coord = self._coord_timer.phases
        if coord:
            out["coordinator"] = coord
        return out

    @property
    def scheduler_wait_seconds(self) -> float:
        """Coordinator time blocked in admission (budget + slab waits,
        including the ordered drains that free them)."""
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
            backend="process",
        )

    def finalize(self, main_timer: PhaseTimer) -> RuntimeReport:
        """Merge worker/coordinator timers into ``main_timer``, close the
        pool and release every shared-memory slab."""
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
        self._slabs.close()
        if self._saved_env is not None:
            for var, old in self._saved_env.items():
                if old is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = old
            self._saved_env = None
        self._closed = True

    def __enter__(self) -> "ProcessRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def make_runtime(
    tracker: MemoryTracker,
    n_workers: int,
    name: str,
    backend: str = "thread",
    worker_payload: Any = None,
    worker_builder: Optional[Callable[[Any], Any]] = None,
):
    """Construct the configured runtime backend over a common signature."""
    if backend == "process":
        return ProcessRuntime(
            tracker, n_workers=n_workers, name=name,
            worker_payload=worker_payload, worker_builder=worker_builder,
        )
    from repro.runtime.scheduler import ParallelRuntime

    return ParallelRuntime(tracker, n_workers=n_workers, name=name)


__all__ = [
    "ProcessRuntime",
    "RUNTIME_BACKEND_ENV",
    "RUNTIME_BACKENDS",
    "START_METHOD_ENV",
    "make_runtime",
    "resolve_runtime_backend",
]
