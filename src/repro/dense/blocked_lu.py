"""Blocked right-looking LU factorization with partial pivoting.

The panel factorization delegates to LAPACK ``getrf`` (via
``scipy.linalg.lu_factor``) and the trailing update is one GEMM per row
slab of the panel — the classic tiled dense LU a ScaLAPACK-like solver
performs.
Pivot bookkeeping follows LAPACK conventions (``piv[i]`` is the row
exchanged with ``i``), so results are interchangeable with
``scipy.linalg.lu_factor``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.linalg import lu_factor as _lapack_lu_factor
from scipy.linalg import solve_triangular

from repro.dense.triangular import blocked_triangular_solve
from repro.utils.errors import SingularMatrixError
from repro.utils.validation import check_square

DEFAULT_BLOCK = 128


def blocked_lu(
    a: np.ndarray, block_size: int = DEFAULT_BLOCK, overwrite: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Factor ``a = P L U`` in compact form.

    Parameters
    ----------
    a:
        Square matrix.
    block_size:
        Panel width.
    overwrite:
        When True, factor in place into ``a``'s buffer.

    Returns
    -------
    (lu, piv):
        ``lu`` holds ``L`` (unit diagonal implicit) below and ``U`` on/above
        the diagonal; ``piv`` is the LAPACK-style pivot vector.

    Raises
    ------
    SingularMatrixError
        On an exactly-zero pivot.
    """
    a = np.asarray(a)
    check_square(a, "a")
    lu = a if overwrite and a.flags.writeable else np.array(a, copy=True)
    if not np.issubdtype(lu.dtype, np.inexact):
        lu = lu.astype(np.float64)
    n = lu.shape[0]
    piv = np.arange(n, dtype=np.intp)

    for k in range(0, n, block_size):
        kb = min(block_size, n - k)
        # factor the tall panel with LAPACK (partial pivoting inside)
        panel = np.ascontiguousarray(lu[k:, k : k + kb])
        try:
            panel_lu, panel_piv = _lapack_lu_factor(panel, check_finite=False)
        except Exception as exc:  # LAPACK raises LinAlgError on breakdown
            raise SingularMatrixError(
                f"LU panel at column {k} failed: {exc}"
            ) from exc
        if np.any(np.diag(panel_lu)[: min(panel_lu.shape)] == 0):
            raise SingularMatrixError(f"zero pivot in LU panel at column {k}")
        lu[k:, k : k + kb] = panel_lu
        # apply the panel's row swaps to the rest of the matrix
        for local, swap in enumerate(panel_piv):
            if swap != local:
                gi, gj = k + local, k + int(swap)
                piv[gi], piv[gj] = piv[gj], piv[gi]
                if k > 0:
                    lu[[gi, gj], :k] = lu[[gj, gi], :k]
                if k + kb < n:
                    lu[[gi, gj], k + kb :] = lu[[gj, gi], k + kb :]
        if k + kb < n:
            l11 = lu[k : k + kb, k : k + kb]
            # U12 = L11^{-1} A12
            lu[k : k + kb, k + kb :] = solve_triangular(
                l11, lu[k : k + kb, k + kb :], lower=True, unit_diagonal=True,
                check_finite=False,
            )
            # trailing update, one GEMM per slab of rows: the product of a
            # slab is a few MiB the allocator recycles; the product for the
            # whole trailing matrix would be a fresh mapping per panel
            # (0.07–0.7 s of page faults per n = 2250 complex LU, depending
            # on the host) for the same values bit for bit
            u12 = lu[k : k + kb, k + kb :]
            for r in range(k + kb, n, block_size):
                rows = slice(r, r + block_size)
                lu[rows, k + kb :] -= lu[rows, k : k + kb] @ u12

    # convert the absolute destination permutation into LAPACK's
    # sequential-swap convention: we tracked swaps directly, so rebuild
    lapack_piv = _perm_to_lapack_piv(piv)
    return lu, lapack_piv


def _perm_to_lapack_piv(perm: np.ndarray) -> np.ndarray:
    """Convert "row i of LU came from row perm[i] of A" into sequential swaps."""
    n = len(perm)
    work = np.arange(n, dtype=np.intp)
    pos = np.arange(n, dtype=np.intp)  # pos[orig] = current slot of orig row
    piv = np.empty(n, dtype=np.intp)
    for i in range(n):
        j = pos[perm[i]]
        piv[i] = j
        if j != i:
            oi, oj = work[i], work[j]
            work[i], work[j] = oj, oi
            pos[oi], pos[oj] = j, i
    return piv


def piv_to_perm(piv: np.ndarray) -> np.ndarray:
    """LAPACK sequential row swaps as one permutation, same dtype as ``piv``.

    Swapping the rows of ``x`` as ``piv`` prescribes is the gather
    ``x[perm]``; undoing the swaps is the scatter ``out[perm] = x``.
    Converted once, when a factorization is stored, so no solve replays
    the swaps row by row.
    """
    perm = list(range(len(piv)))
    for i, j in enumerate(piv.tolist()):
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=piv.dtype)


def lu_solve(
    lu: np.ndarray,
    piv: np.ndarray,
    b: np.ndarray,
    trans: int = 0,
    block_size: int = DEFAULT_BLOCK,
) -> np.ndarray:
    """Solve ``A x = b`` (or ``Aᵀ x = b`` for ``trans=1``) from ``blocked_lu`` output."""
    return lu_solve_perm(lu, piv_to_perm(piv), b, trans, block_size)


def lu_solve_perm(lu, perm, b, trans=0, block_size=DEFAULT_BLOCK) -> np.ndarray:
    """:func:`lu_solve` with the pivots already a :func:`piv_to_perm` gather."""
    if trans == 0:
        b = np.asarray(b)
        if b.shape[:1] != (len(perm),):  # before the gather hides it
            raise ValueError(
                f"rhs has {b.shape[0] if b.ndim else 1} rows, "
                f"expected {len(perm)}")
        x = blocked_triangular_solve(lu, b[perm], True, unit=True,
                                     block_size=block_size, overwrite_b=True)
        return blocked_triangular_solve(lu, x, False, block_size=block_size,
                                        overwrite_b=True)
    # Aᵀ = Uᵀ Lᵀ Pᵀ: solve Uᵀ y = b, then Lᵀ z = y, then undo the swaps
    y = blocked_triangular_solve(lu, b, False, trans=True,
                                 block_size=block_size)
    z = blocked_triangular_solve(lu, y, True, trans=True, unit=True,
                                 block_size=block_size, overwrite_b=True)
    x = np.empty_like(z)
    x[perm] = z
    return x
