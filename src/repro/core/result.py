"""Solution and statistics containers returned by the coupled solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.memory.tracker import fmt_bytes


@dataclass
class SolveStats:
    """Per-run measurements, mirroring the quantities the paper reports.

    ``phases`` holds the wall-clock breakdown (sparse factorization, sparse
    solve, SpMM, Schur assembly/compression, dense factorization, solves);
    phases nest and, under several workers, add up worker time, so they
    need not sum to ``total_time``, the run's wall clock;
    ``peak_bytes`` is the logical peak of the run's memory tracker, and
    ``peak_by_category`` its breakdown — the memory axis of Figs. 12/13 and
    the RAM column of Table II.
    """

    algorithm: str
    coupling: str
    n_total: int
    n_fem: int
    n_bem: int
    phases: Dict[str, float] = field(default_factory=dict)
    total_time: float = 0.0
    peak_bytes: int = 0
    peak_by_category: Dict[str, int] = field(default_factory=dict)
    schur_bytes: int = 0
    schur_dense_bytes: int = 0
    #: Stored bytes of the sparse factorization the run keeps for its
    #: right-hand-side solves; for multi-factorization that is the last
    #: ``W`` block's (every other block keeps no factors).
    sparse_factor_bytes: int = 0
    n_sparse_factorizations: int = 0
    n_sparse_solves: int = 0
    #: Symbolic analyses of ``A_vv`` (ordering + symbolic factorization)
    #: the run computed: one, on the coordinator, for every algorithm
    #: and runtime.
    n_symbolic_analyses: int = 0
    #: Sparse factorizations that took an existing analysis instead of
    #: computing one (``n_sparse_factorizations − n_symbolic_analyses``:
    #: every ``W`` block but the first of multi-factorization, 0 for the
    #: other algorithms).
    n_symbolic_reuses: int = 0
    #: Width of the parallel panel runtime that ran the Schur assembly
    #: (1 = serial); phase totals are worker time, so they stay comparable
    #: across worker counts.
    n_workers: int = 1
    #: Per-worker phase breakdown (``worker-N`` -> phase -> seconds) when
    #: the assembly ran on the parallel runtime.
    worker_phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Total time workers spent blocked in the scheduler (admission
    #: control waiting for memory budget + ordered-admission turnstile).
    scheduler_wait_seconds: float = 0.0
    #: Coordinator wall-clock seconds inside the runtime's ``run()`` calls
    #: — the parallelisable assembly window.  Unlike ``phases`` (worker
    #: time, sums across workers), this shrinks as workers are added; the
    #: scaling bench measures backend speedup on it.
    runtime_wall_seconds: float = 0.0
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def schur_compression_ratio(self) -> float:
        """Stored Schur bytes over dense Schur bytes (1.0 = uncompressed)."""
        if self.schur_dense_bytes == 0:
            return float("nan")
        return self.schur_bytes / self.schur_dense_bytes

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.algorithm:<28} {self.coupling:<12} N={self.n_total:<8} "
            f"time={self.total_time:8.2f}s peak={fmt_bytes(self.peak_bytes):>12} "
            f"S={fmt_bytes(self.schur_bytes):>12}"
        )


@dataclass
class CoupledSolution:
    """Solution of the coupled system plus run statistics."""

    x_v: np.ndarray
    x_s: np.ndarray
    stats: SolveStats
    relative_error: Optional[float] = None

    @property
    def x(self) -> np.ndarray:
        """Concatenated solution ``(x_v, x_s)``."""
        return np.concatenate([self.x_v, self.x_s])
