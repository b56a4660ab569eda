"""Top-level entry point of the coupled solution algorithms."""

from __future__ import annotations

from repro.core.config import SolverConfig
from repro.core.factorized import CoupledFactorization
from repro.core.result import CoupledSolution
from repro.fembem.cases import CoupledProblem


def solve_coupled(
    problem: CoupledProblem,
    algorithm: str = "multi_solve",
    config: SolverConfig = SolverConfig(),
) -> CoupledSolution:
    """Solve a coupled FEM/BEM system with the named algorithm.

    A :class:`~repro.core.factorized.CoupledFactorization` solved once,
    with the problem's own right-hand side, then freed.

    Parameters
    ----------
    problem:
        The coupled system (see :func:`repro.fembem.generate_pipe_case` /
        :func:`repro.fembem.generate_aircraft_case`).
    algorithm:
        One of ``"baseline"``, ``"advanced"``, ``"multi_solve"``,
        ``"multi_factorization"`` (the keys of
        :data:`repro.core.factorized.ALGORITHMS`).  The
        compressed-Schur variants of the latter two are selected by
        ``config.dense_backend == "hmat"``.
    config:
        Solver configuration (block sizes, tolerances, memory limit).

    Returns
    -------
    CoupledSolution
        Solution vectors, statistics and the relative error against the
        problem's manufactured exact solution.

    Raises
    ------
    repro.utils.MemoryLimitExceeded
        When ``config.memory_limit`` is set and the algorithm's logical
        footprint would exceed it (the paper's out-of-memory analog); the
        failed run leaves nothing charged.
    """
    with CoupledFactorization(problem, algorithm, config) as fact:
        x_v, x_s = fact.solve(problem.b_v, problem.b_s)
        stats = fact.stats
    return CoupledSolution(
        x_v=x_v, x_s=x_s, stats=stats,
        relative_error=problem.relative_error(x_v, x_s),
    )
