"""repro — coupled sparse/dense FEM/BEM direct solvers with low-rank compression.

A from-scratch reproduction of

    E. Agullo, M. Felšöci, G. Sylvand, "Direct solution of larger coupled
    sparse/dense linear systems using low-rank compression on single-node
    multi-core machines in an industrial context", IPDPS 2022.

The package layers:

* :mod:`repro.sparse` — multifrontal sparse direct solver with a dense
  Schur-complement API and BLR compression (the MUMPS role);
* :mod:`repro.dense` — blocked uncompressed dense solver (the SPIDO role);
* :mod:`repro.hmatrix` — hierarchical low-rank solver with ACA compression
  and compressed AXPY (the HMAT role);
* :mod:`repro.fembem` — coupled FEM/BEM problem generators (short pipe and
  industrial aircraft analogs) with manufactured exact solutions;
* :mod:`repro.core` — the paper's contribution: baseline/advanced
  couplings and the multi-solve / multi-factorization algorithms with
  compressed-Schur variants, named in :data:`ALGORITHMS` and run as a
  :class:`CoupledFactorization` (:func:`solve_coupled` solves one once);
* :mod:`repro.memory` — logical memory tracking (OOM analog) and the
  paper-scale analytic memory model;
* :mod:`repro.runner` — experiment harness regenerating every table and
  figure of the paper's evaluation.

Quickstart
----------
>>> from repro import generate_pipe_case, solve_coupled, SolverConfig
>>> problem = generate_pipe_case(n_total=4000)
>>> sol = solve_coupled(problem, "multi_solve",
...                     SolverConfig(dense_backend="hmat"))
>>> sol.relative_error < 1e-2
True
"""

from repro.core import (
    ALGORITHMS,
    CoupledFactorization,
    CoupledSolution,
    SolveStats,
    SolverConfig,
    solve_coupled,
)
from repro.fembem import (
    CoupledProblem,
    generate_aircraft_case,
    generate_pipe_case,
)
from repro.memory import MemoryTracker, fmt_bytes
from repro.utils import MemoryLimitExceeded, ReproError

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "CoupledFactorization",
    "CoupledProblem",
    "CoupledSolution",
    "MemoryLimitExceeded",
    "MemoryTracker",
    "ReproError",
    "SolveStats",
    "SolverConfig",
    "fmt_bytes",
    "generate_aircraft_case",
    "generate_pipe_case",
    "solve_coupled",
    "__version__",
]
