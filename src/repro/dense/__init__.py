"""Blocked dense direct solver (the SPIDO substitute).

The paper's baseline dense solver SPIDO is a proprietary ScaLAPACK-like
direct solver: uncompressed dense storage, blocked factorization kernels.
This subpackage provides the equivalent building blocks on NumPy buffers:

* blocked LU with partial pivoting (:func:`blocked_lu`),
* blocked LDLᵀ for symmetric matrices (:func:`blocked_ldlt`),
* blocked Cholesky for SPD matrices (:func:`blocked_cholesky`),
* the in-place triangular kernel of every solve sweep and the blocked
  triangular solves built on it (:mod:`repro.dense.triangular`), and
* the :class:`DenseSolver` facade used by the coupling algorithms, which
  picks the factorization from the matrix's symmetry and tracks the factor
  memory.

All routines operate on explicit 2-D arrays; the blocked structure keeps
the heavy work in BLAS-3 calls exactly as a tiled dense solver would.
"""

from repro.dense.blocked_lu import blocked_lu, lu_solve, piv_to_perm
from repro.dense.ldlt import blocked_ldlt, ldlt_solve
from repro.dense.cholesky import blocked_cholesky, cholesky_solve
from repro.dense.triangular import (
    RowBlockKernel,
    solve_lower_triangular,
    solve_upper_triangular,
    solve_unit_lower_triangular,
)
from repro.dense.solver import DenseFactorization, DenseSolver

__all__ = [
    "blocked_lu",
    "lu_solve",
    "piv_to_perm",
    "blocked_ldlt",
    "ldlt_solve",
    "blocked_cholesky",
    "cholesky_solve",
    "RowBlockKernel",
    "solve_lower_triangular",
    "solve_upper_triangular",
    "solve_unit_lower_triangular",
    "DenseFactorization",
    "DenseSolver",
]
