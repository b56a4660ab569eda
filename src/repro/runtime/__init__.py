"""Task-based shared-memory parallel runtime for the coupling algorithms.

The paper's machine is a single 24-core node; this package supplies the
matching execution layer: a :class:`~repro.runtime.scheduler.ParallelRuntime`
that runs independent panel tasks (blocked sparse solves, Schur block
factorizations) on a thread pool — the NumPy/SciPy kernels underneath
release the GIL — with **budget-aware admission control** against the run's
:class:`~repro.memory.tracker.MemoryTracker` and a **deterministic
reduction order**, so solutions are bit-identical for any worker count.

For workloads whose pure-Python share contends on the GIL, the
:class:`~repro.runtime.process_backend.ProcessRuntime` executes the same
task sequences on a process pool with shared-memory result panels and
coordinator-side accounting — same admission semantics, same ordered
consume, genuinely concurrent kernels.  Select it with
``SolverConfig.runtime_backend="process"``, ``$REPRO_RUNTIME_BACKEND`` or
``--runtime-backend`` (see ``docs/scaling.md`` §11).
"""

from repro.runtime.process_backend import (
    RUNTIME_BACKEND_ENV,
    RUNTIME_BACKENDS,
    ProcessRuntime,
    make_runtime,
    resolve_runtime_backend,
)
from repro.runtime.scheduler import (
    PanelTask,
    ParallelRuntime,
    resolve_n_workers,
)

__all__ = [
    "PanelTask",
    "ParallelRuntime",
    "ProcessRuntime",
    "RUNTIME_BACKENDS",
    "RUNTIME_BACKEND_ENV",
    "make_runtime",
    "resolve_n_workers",
    "resolve_runtime_backend",
]
