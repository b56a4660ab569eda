"""Blocked dense direct solver (the SPIDO substitute).

The paper's baseline dense solver SPIDO is a proprietary ScaLAPACK-like
direct solver: uncompressed dense storage, blocked factorization kernels.
This subpackage provides the equivalent building blocks on NumPy buffers:

* LU with partial pivoting, one LAPACK ``getrf`` in the caller's buffer
  (:func:`lu_factor_inplace`),
* blocked LDLᵀ for symmetric matrices (:func:`blocked_ldlt`),
* the in-place triangular kernel of every solve sweep and the blocked
  triangular solves built on it (:mod:`repro.dense.triangular`), and
* the :class:`DenseSolver` facade used by the coupling algorithms, which
  factors the dense Schur block in place with the one of the two its
  symmetry calls for.

All routines operate on explicit 2-D arrays and leave the heavy work to
LAPACK and BLAS-3 calls, as a tiled dense solver would.
"""

from repro.dense.lu import lu_factor_inplace, lu_solve_transposed, piv_to_perm
from repro.dense.ldlt import blocked_ldlt, ldlt_solve
from repro.dense.triangular import (
    RowBlockKernel,
    solve_lower_triangular,
    solve_upper_triangular,
    solve_unit_lower_triangular,
)
from repro.dense.solver import DenseFactorization, DenseSolver

__all__ = [
    "lu_factor_inplace",
    "lu_solve_transposed",
    "piv_to_perm",
    "blocked_ldlt",
    "ldlt_solve",
    "RowBlockKernel",
    "solve_lower_triangular",
    "solve_upper_triangular",
    "solve_unit_lower_triangular",
    "DenseFactorization",
    "DenseSolver",
]
