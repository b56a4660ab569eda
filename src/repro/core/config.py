"""Configuration of the coupled solvers.

One :class:`SolverConfig` instance drives every algorithm; its fields map
directly onto the parameters the paper studies:

* ``n_c`` — columns of ``A_svᵀ`` per blocked sparse solve in multi-solve
  (also the number of simultaneous right-hand sides the sparse solver
  processes; Fig. 12 sweeps 32–256);
* ``n_s_block`` (the paper's ``n_S``) — in *compressed* multi-solve, the
  columns of ``S`` between two flushes of its deferred-recompression
  accumulators, dissociated from ``n_c`` to amortise the recompression
  cost (Fig. 12 sweeps 512–4096);
* ``n_b`` — number of square Schur blocks per side in multi-factorization
  (Fig. 13 sweeps 1–4; more blocks = less memory, more superfluous
  refactorizations);
* ``epsilon`` — low-rank precision of both the sparse (BLR) and dense
  (hierarchical) compression (paper: 1e-3 pipe, 1e-4 industrial); every
  ℋ operation on ``S`` — ACA build, AXPY pre-compression (rank-first
  SVD, the paper's recompression), flush and H-LDLᵀ / H-LU — rounds at
  ε itself, so the backward error is within ε (every pipe rung measured,
  12k–100k unknowns); the forward error of Fig. 11 is κ(S) times the
  error of ``S`` and passes ε once κ(S) has grown with N (1.07e-3 at
  ε = 1e-3 on pipe 50k; see ``docs/algorithms.md``, Stability posture);
* ``dense_backend`` — ``"spido"`` (uncompressed dense Schur) versus
  ``"hmat"`` (compressed Schur), i.e. the MUMPS/SPIDO and MUMPS/HMAT
  couplings;
* ``sparse_compression`` — BLR on/off in the sparse solver (Table II rows
  1–3 versus 4+);
* ``memory_limit`` — hard logical-memory cap; exceeding it raises
  :class:`repro.utils.MemoryLimitExceeded` (the paper's OOM analog);
* ``n_workers`` — width of the shared-memory parallel runtime executing
  independent panel solves / Schur block factorizations (the paper's
  24-core node).  ``None`` resolves ``$REPRO_N_WORKERS`` and falls back
  to 1 (serial, the historical behavior); solutions are bit-identical
  for every worker count.

Iterative refinement is not a field: it belongs to one solve, not to
the factorization, and is an argument of
:meth:`repro.core.factorized.CoupledFactorization.solve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.memory.tracker import MemoryTracker
from repro.sparse.blr import BLRConfig
from repro.utils.errors import ConfigurationError

#: Every value ``SolverConfig.dense_backend`` accepts (the CLI takes its
#: choices from here).
DENSE_BACKENDS = ("spido", "hmat", "spido_ooc")


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs of the coupled solution algorithms (see module docs)."""

    dense_backend: str = "spido"
    epsilon: float = 1e-3
    sparse_compression: bool = True
    n_c: int = 256
    n_s_block: int = 2048
    n_b: int = 2
    memory_limit: Optional[int] = None
    #: Worker threads of the parallel panel runtime (:mod:`repro.runtime`).
    #: ``None`` = ``$REPRO_N_WORKERS`` if set, else 1 (serial).  Any value
    #: yields bit-identical solutions; memory stays bounded by
    #: ``memory_limit`` through the runtime's admission control.
    n_workers: Optional[int] = None
    #: Execution backend of the parallel panel runtime: ``"thread"`` (the
    #: historical pool; NumPy kernels release the GIL) or ``"process"``
    #: (a process pool with shared-memory result panels and
    #: coordinator-side memory accounting — true concurrency for the
    #: pure-Python share of each task; see ``docs/scaling.md`` §11).
    #: ``None`` = ``$REPRO_RUNTIME_BACKEND`` if set, else ``"thread"``.
    #: Solutions are bit-identical across backends under the same BLAS
    #: threading.
    runtime_backend: Optional[str] = None

    def __post_init__(self):
        if self.dense_backend not in DENSE_BACKENDS:
            raise ConfigurationError(
                f"dense_backend must be one of {DENSE_BACKENDS}"
            )
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigurationError("epsilon must be finite and positive")
        for name in ("n_c", "n_s_block", "n_b"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.memory_limit is not None and self.memory_limit <= 0:
            raise ConfigurationError("memory_limit must be positive or None")
        if self.n_workers is not None and self.n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1 or None")
        if self.runtime_backend is not None and self.runtime_backend not in (
            "thread", "process"
        ):
            raise ConfigurationError(
                "runtime_backend must be 'thread', 'process' or None"
            )

    @property
    def effective_n_workers(self) -> int:
        """Resolved runtime width: ``n_workers``, ``$REPRO_N_WORKERS``, or 1."""
        from repro.runtime import resolve_n_workers

        return resolve_n_workers(self.n_workers)

    @property
    def effective_runtime_backend(self) -> str:
        """Resolved runtime backend: ``runtime_backend``,
        ``$REPRO_RUNTIME_BACKEND``, or ``"thread"``."""
        from repro.runtime import resolve_runtime_backend

        return resolve_runtime_backend(self.runtime_backend)

    @property
    def coupling_name(self) -> str:
        """The paper's coupling label for this configuration."""
        return {
            "hmat": "MUMPS/HMAT",
            "spido": "MUMPS/SPIDO",
            # out-of-core uncompressed dense Schur — §VII future work
            "spido_ooc": "MUMPS/SPIDO-OOC",
        }[self.dense_backend]

    def blr_config(self) -> Optional[BLRConfig]:
        """BLR settings for the sparse solver (None = compression off)."""
        if not self.sparse_compression:
            return None
        return BLRConfig(enabled=True, tol=self.epsilon)

    def make_tracker(self, name: str = "") -> MemoryTracker:
        """Fresh memory tracker honouring ``memory_limit``."""
        return MemoryTracker(limit_bytes=self.memory_limit, name=name)

    def with_(self, **changes) -> "SolverConfig":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **changes)
