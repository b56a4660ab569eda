"""Factorize once, solve many right-hand sides.

The paper's pipeline (and :func:`repro.core.solve_coupled`) solves the one
right-hand side carried by the test case.  Production acoustic studies
sweep many excitations (load cases) against the same aircraft at the same
frequency — i.e. many right-hand sides against one factorization.
:class:`CoupledFactorization` keeps the expensive state alive — the sparse
factorization of :math:`A_{vv}` and the factored Schur complement, built
by any of the four coupling algorithms — and exposes a repeatable
``solve(b_v, b_s)``.  It is the only way a run is built:
:func:`repro.core.solve_coupled` is one solved once with the test case's
own right-hand side.

Example
-------
>>> from repro import generate_pipe_case, SolverConfig
>>> from repro.core.factorized import CoupledFactorization
>>> problem = generate_pipe_case(2_000)
>>> fact = CoupledFactorization(problem, "multi_solve",
...                             SolverConfig(dense_backend="hmat"))
>>> x_v, x_s = fact.solve(problem.b_v, problem.b_s)   # first load case
>>> x_v2, x_s2 = fact.solve(2 * problem.b_v, problem.b_s)  # next one
>>> fact.free()
"""

from __future__ import annotations

import threading
from typing import Tuple

import numpy as np

from repro.core.advanced import assemble_advanced
from repro.core.baseline import assemble_baseline
from repro.core.config import SolverConfig
from repro.core.multi_factorization import assemble_multi_factorization
from repro.core.multi_solve import assemble_multi_solve
from repro.core.result import SolveStats
from repro.core.schur_tools import RunContext, reduce_rhs_and_solve
from repro.fembem.cases import CoupledProblem
from repro.utils.errors import ConfigurationError, FactorizationFreed

#: The coupling algorithms by name: each ``assemble_*`` builds the sparse
#: factorization and the factored Schur container on a :class:`RunContext`.
ALGORITHMS = {
    "baseline": assemble_baseline,
    "advanced": assemble_advanced,
    "multi_solve": assemble_multi_solve,
    "multi_factorization": assemble_multi_factorization,
}


class CoupledFactorization:
    """Reusable factorization of a coupled FEM/BEM system.

    Parameters
    ----------
    problem:
        The coupled system (its embedded right-hand side is ignored here;
        pass load cases to :meth:`solve`).
    algorithm:
        One of the four coupling algorithms; the compressed variants are
        selected by ``config.dense_backend`` as usual.
    config:
        Solver configuration.
    """

    def __init__(
        self,
        problem: CoupledProblem,
        algorithm: str = "multi_solve",
        config: SolverConfig = SolverConfig(),
    ):
        try:
            assemble = ALGORITHMS[algorithm]
        except KeyError:
            raise ConfigurationError(
                f"unknown algorithm {algorithm!r}; "
                f"available: {sorted(ALGORITHMS)}"
            ) from None
        self.problem = problem
        self.config = config
        self.algorithm = algorithm
        self._ctx = RunContext(problem, config, algorithm)
        try:
            self._mf, self._container, self._sparse_factor_bytes = assemble(
                self._ctx
            )
        except BaseException:
            # a failed run leaves nothing charged and nothing on disk
            self._ctx.close()
            raise
        # the container's own count dies with it in free()
        self._schur_bytes = self._container.stored_bytes
        # concurrent-solve state machine: solves register themselves so a
        # racing free() (a cache eviction) defers the actual resource
        # release until the last in-flight solve drains — a solve either
        # completes against live factors or raises FactorizationFreed,
        # never reads freed state or double-releases tracker charges
        self._fact_lock = threading.Lock()
        self._freed = False  # guarded-by: _fact_lock
        self._free_pending = False  # guarded-by: _fact_lock
        self._active_solves = 0  # guarded-by: _fact_lock
        self.n_solves = 0  # guarded-by: _fact_lock

    # -- solving --------------------------------------------------------------
    def _begin_solve(self) -> None:
        """Register an in-flight solve; raise if the handle was freed."""
        with self._fact_lock:
            if self._freed:
                raise FactorizationFreed(
                    f"factorization of {self.problem.name!r} "
                    f"({self.algorithm}) has been freed"
                )
            self._active_solves += 1

    def _end_solve(self) -> None:
        """Deregister a solve; perform a deferred free when it was the last."""
        with self._fact_lock:
            self._active_solves -= 1
            release = self._free_pending and self._active_solves == 0
            if release:
                self._free_pending = False
            self.n_solves += 1
        if release:
            self._release_resources()

    def solve(
        self,
        b_v: np.ndarray,
        b_s: np.ndarray,
        refinement_steps: int = 0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Solve for one load case ``(b_v, b_s)``.

        Accepts vectors or matrices of stacked load-case columns; returns
        ``(x_v, x_s)`` with matching shapes.  ``refinement_steps`` rounds
        of iterative refinement follow the direct solve: the (possibly
        compressed) factorizations precondition a residual correction
        evaluated against the *exact* operator, recovering accuracy below
        the compression tolerance for a couple of extra solves.  0 (the
        paper's setting) runs none.

        Thread-safe: concurrent calls are allowed (the factors are
        immutable after assembly and the per-solve workspaces are local),
        and a call racing :meth:`free` either completes against live
        factors or raises :class:`~repro.utils.FactorizationFreed`.
        """
        self._begin_solve()
        try:
            return self._solve_impl(b_v, b_s, refinement_steps)
        finally:
            self._end_solve()

    def _solve_impl(
        self,
        b_v: np.ndarray,
        b_s: np.ndarray,
        refinement_steps: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        if refinement_steps < 0:
            raise ConfigurationError("refinement_steps must be >= 0")
        b_v = np.asarray(b_v)
        b_s = np.asarray(b_s)
        if b_v.shape[0] != self.problem.n_fem:
            raise ConfigurationError(
                f"b_v has {b_v.shape[0]} rows, expected {self.problem.n_fem}"
            )
        if b_s.shape[0] != self.problem.n_bem:
            raise ConfigurationError(
                f"b_s has {b_s.shape[0]} rows, expected {self.problem.n_bem}"
            )
        return reduce_rhs_and_solve(
            self._ctx, self._mf, self._container, b_v, b_s, refinement_steps
        )

    # -- inspection -----------------------------------------------------------
    @property
    def stats(self) -> SolveStats:
        """Statistics snapshot (assembly phases + solves so far); still
        readable after :meth:`free`."""
        return self._ctx.stats(self._schur_bytes, self._sparse_factor_bytes)

    @property
    def peak_bytes(self) -> int:
        """Logical peak of this factorization's own tracker.

        The serving layer's :class:`repro.serving.FactorCache` charges
        this against its budget — the peak (not the resident factor
        bytes) is what a rebuild of the entry would need, so admission
        decisions stay truthful.
        """
        return self._ctx.tracker.peak

    @property
    def stored_bytes(self) -> int:
        """Resident factor bytes (sparse factors + Schur container)."""
        return int(self._schur_bytes) + int(self._sparse_factor_bytes)

    @property
    def freed(self) -> bool:
        """True once :meth:`free` ran (new solves will raise)."""
        with self._fact_lock:
            return self._freed

    def free(self) -> None:
        """Release both factorizations.  Idempotent and solve-safe.

        Marks the handle freed immediately (subsequent :meth:`solve`
        calls raise :class:`~repro.utils.FactorizationFreed`); the actual
        resource release is deferred to the last in-flight solve when any
        are active, so a solve racing an eviction never reads freed
        factors and the tracker charges are released exactly once.
        """
        with self._fact_lock:
            if self._freed:
                return
            self._freed = True
            if self._active_solves > 0:
                self._free_pending = True
                return
        self._release_resources()

    def _release_resources(self) -> None:
        """Actually drop the factors; reached exactly once per instance."""
        self._ctx.close()

    def __enter__(self) -> "CoupledFactorization":
        return self

    def __exit__(self, *exc) -> None:
        self.free()

    def __repr__(self) -> str:  # lock-ok: racy debug snapshot; pragma: no cover
        return (
            f"CoupledFactorization({self.algorithm!r}, "
            f"n={self.problem.n_total}, solves={self.n_solves})"
        )
