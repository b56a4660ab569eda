"""Coupled sparse/dense direct solution algorithms — the paper's contribution.

Four solution algorithms for the coupled FEM/BEM system (1), all built on
the sparse (:mod:`repro.sparse`) and dense (:mod:`repro.dense`,
:mod:`repro.hmatrix`) solver building blocks, named in :data:`ALGORITHMS`:

* ``"baseline"`` — the *baseline coupling* (§II-E): one sparse
  factorization, one huge sparse solve ``A_vv⁻¹ A_svᵀ`` retrieved dense,
  an SpMM, and a dense Schur factorization;
* ``"advanced"`` — the *advanced coupling* (§II-F): one sparse
  factorization+Schur call on the full coupled matrix;
* ``"multi_solve"`` — the **multi-solve** algorithm (§IV-A):
  blockwise Schur assembly through repeated blocked sparse solves
  (Algorithm 1), with the compressed-Schur variant (Algorithm 2) when the
  dense backend is the hierarchical solver;
* ``"multi_factorization"`` — the **multi-factorization**
  algorithm (§IV-B): the Schur complement computed by square blocks
  through repeated sparse factorization+Schur calls (Algorithm 3), with
  its compressed-Schur variant.

:class:`CoupledFactorization` runs one of them and keeps both
factorizations for any number of load cases; :func:`solve_coupled` is
one such factorization solved once with the problem's own right-hand
side.  :class:`SolverConfig` carries every tuning knob (``n_c``, ``n_S``,
``n_b``, ε, backends, memory limit).
"""

from repro.core.config import SolverConfig
from repro.core.result import CoupledSolution, SolveStats
from repro.core.api import solve_coupled
from repro.core.factorized import ALGORITHMS, CoupledFactorization

__all__ = [
    "SolverConfig",
    "CoupledSolution",
    "SolveStats",
    "ALGORITHMS",
    "solve_coupled",
    "CoupledFactorization",
]
