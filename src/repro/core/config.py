"""Configuration of the coupled solvers.

One :class:`SolverConfig` instance drives every algorithm; its fields map
directly onto the parameters the paper studies:

* ``n_c`` — columns of ``A_svᵀ`` per blocked sparse solve in multi-solve
  (also the number of simultaneous right-hand sides the sparse solver
  processes; Fig. 12 sweeps 32–256);
* ``n_s_block`` (the paper's ``n_S``) — columns of each Schur block in
  *compressed* multi-solve, dissociated from ``n_c`` to amortise the
  recompression cost (Fig. 12 sweeps 512–4096);
* ``n_b`` — number of square Schur blocks per side in multi-factorization
  (Fig. 13 sweeps 1–4; more blocks = less memory, more superfluous
  refactorizations);
* ``epsilon`` — low-rank precision of both the sparse (BLR) and dense
  (hierarchical) compression (paper: 1e-3 pipe, 1e-4 industrial);
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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.memory.tracker import MemoryTracker
from repro.sparse.blr import BLRConfig
from repro.utils.errors import ConfigurationError

#: Every value ``SolverConfig.dense_backend`` accepts (the CLI takes its
#: choices from here).
DENSE_BACKENDS = ("spido", "hmat", "spido_ooc")
_COMPRESSORS = ("svd", "aca")


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs of the coupled solution algorithms (see module docs)."""

    dense_backend: str = "spido"
    epsilon: float = 1e-3
    sparse_compression: bool = True
    n_c: int = 256
    n_s_block: int = 2048
    n_b: int = 2
    #: Dense → Rk compressor of the compressed-AXPY pieces: ``"svd"`` is
    #: rank-first and optimal; ``"aca"`` skips the Gram ``eigh`` and is
    #: the faster one where the pieces are large (complex
    #: multi-factorization blocks: EXPERIMENTS.md "PR 22", table B).
    compressor: str = "svd"
    compression_safety: float = 0.02
    memory_limit: Optional[int] = None
    #: Steps of iterative refinement after the direct solve: the (possibly
    #: compressed) factorizations precondition a residual correction
    #: evaluated against the *exact* operator, recovering accuracy below
    #: the compression tolerance for a couple of extra solves.  0 (the
    #: paper's setting) disables it.
    refinement_steps: int = 0
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
    #: Deferred recompression of the compressed-AXPY updates (LUAR-style):
    #: low-rank panel pieces are *appended* to per-block accumulators and
    #: recompressed once per budget window / final flush instead of once
    #: per panel, removing the heavy recompression overhead the paper
    #: reports for small ``n_S``.  ``False`` is the paper's Algorithm 2
    #: as written (one immediately recompressed AXPY per ``n_S`` block,
    #: what Fig. 12 sweeps); results differ only in rounding order, both
    #: within ε.
    axpy_accumulate: bool = True

    def __post_init__(self):
        if self.dense_backend not in DENSE_BACKENDS:
            raise ConfigurationError(
                f"dense_backend must be one of {DENSE_BACKENDS}"
            )
        if self.compressor not in _COMPRESSORS:
            raise ConfigurationError(f"compressor must be one of {_COMPRESSORS}")
        if self.epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        if not 0.0 < self.compression_safety <= 1.0:
            raise ConfigurationError(
                "compression_safety must be in (0, 1]"
            )
        for name in ("n_c", "n_s_block", "n_b"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.memory_limit is not None and self.memory_limit <= 0:
            raise ConfigurationError("memory_limit must be positive or None")
        if self.refinement_steps < 0:
            raise ConfigurationError("refinement_steps must be >= 0")
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
    def hierarchical_tol(self) -> float:
        """Internal rounding tolerance of the hierarchical Schur container.

        Repeated compressed-AXPY recompressions and H-LU updates accumulate
        roundoff; rounding a safety factor below the target ε keeps the
        final relative error under ε (the behaviour Fig. 11 reports).
        """
        return self.epsilon * self.compression_safety

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
