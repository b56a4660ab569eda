"""The :class:`DenseSolver` facade (SPIDO-equivalent API).

The coupling algorithms only need two dense building blocks (paper §II-D):
*dense factorization* of the Schur complement and *dense solve*.  SPIDO
keeps the dense Schur block once ("quadratic dense storage"), so this
facade factors the block in its own buffer — one LAPACK ``getrf`` for a
non-symmetric block, the blocked LDLᵀ for a symmetric one — and the
block's existing memory charge is the factor's only one.  It returns a
:class:`DenseFactorization` handle with ``solve``/``free``.
"""

from __future__ import annotations

import numpy as np

from repro.dense.ldlt import blocked_ldlt, ldlt_solve
from repro.dense.lu import lu_factor_inplace, lu_solve_transposed


class DenseFactorization:
    """Handle on a factored dense matrix; call :meth:`solve`, then :meth:`free`."""

    def __init__(self, method: str, data: tuple):
        self.method = method
        self._data = data
        self._freed = False

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b``; ``b`` is not modified."""
        if self._freed:
            raise RuntimeError("factorization has been freed")
        if self.method == "lu":
            return lu_solve_transposed(*self._data, b)
        return ldlt_solve(*self._data, b)

    def free(self) -> None:
        """Drop the references to the factors."""
        self._freed = True
        self._data = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DenseFactorization({self.method})"


class DenseSolver:
    """Uncompressed dense direct solver (the SPIDO role)."""

    def factorize(self, a: np.ndarray, symmetric: bool) -> DenseFactorization:
        """Factor ``a`` in place: its buffer holds the factors afterwards.

        ``symmetric`` (the callers in :mod:`repro.core` know their block
        structure) picks LDLᵀ, which reads only ``a``'s lower triangle;
        otherwise LU with partial pivoting.  ``a`` is a writeable,
        C-contiguous array of a LAPACK dtype, as the Schur containers
        hold it.

        Raises
        ------
        SingularMatrixError
            On an exactly-zero (LU) or numerically zero (LDLᵀ) pivot.
        """
        if symmetric:
            return DenseFactorization("ldlt", blocked_ldlt(a, overwrite=True))
        return DenseFactorization("lu", lu_factor_inplace(a))
