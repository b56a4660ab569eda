"""Blocked Cholesky factorization for SPD / HPD matrices.

Right-looking variant: LAPACK ``potrf`` on each diagonal panel, a blocked
triangular solve for the panel below it, and one symmetric rank-``nb``
update of the trailing matrix's lower triangle per step, one GEMM per row
slab.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky as _lapack_cholesky
from scipy.linalg import solve_triangular

from repro.dense.ldlt import _lower_update
from repro.dense.triangular import blocked_triangular_solve
from repro.utils.errors import SingularMatrixError
from repro.utils.validation import check_square

DEFAULT_BLOCK = 128


def blocked_cholesky(a: np.ndarray, block_size: int = DEFAULT_BLOCK) -> np.ndarray:
    """Factor SPD (real) / HPD (complex) ``a = L Lᴴ``; returns lower ``L``.

    Only the lower triangle of ``a`` is referenced.

    Raises
    ------
    SingularMatrixError
        When a diagonal panel is not positive definite.
    """
    a = np.asarray(a)
    check_square(a, "a")
    n = a.shape[0]
    dtype = a.dtype if np.issubdtype(a.dtype, np.inexact) else np.float64
    l = np.tril(np.array(a, dtype=dtype, copy=True))

    for k in range(0, n, block_size):
        kb = min(block_size, n - k)
        try:
            lk = _lapack_cholesky(
                l[k : k + kb, k : k + kb], lower=True, check_finite=False
            )
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"Cholesky panel at row {k} not positive definite: {exc}"
            ) from exc
        l[k : k + kb, k : k + kb] = lk
        if k + kb < n:
            # L21 = A21 L11^{-H}
            a21 = l[k + kb :, k : k + kb]
            x = solve_triangular(
                lk, a21.conj().T, lower=True, check_finite=False
            ).conj().T
            l[k + kb :, k : k + kb] = x
            _lower_update(l[k + kb :, k + kb :], x, x.conj().T, block_size)
    return l


def cholesky_solve(l: np.ndarray, b: np.ndarray,
                   block_size: int = DEFAULT_BLOCK) -> np.ndarray:
    """Solve ``L Lᴴ x = b`` from :func:`blocked_cholesky` output."""
    x = blocked_triangular_solve(l, b, True, block_size=block_size)
    # Lᴴ = conj(L)ᵀ (``conj`` of a real L is L itself, no copy)
    return blocked_triangular_solve(l.conj(), x, True, trans=True,
                                    block_size=block_size, overwrite_b=True)
