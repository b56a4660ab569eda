"""Dense LU with partial pivoting: one LAPACK ``getrf`` in the caller's
buffer, and the pivot conversion every stored LU factor shares.

A C-ordered ``a`` is the F-ordered ``aᵀ`` LAPACK wants, so
:func:`lu_factor_inplace` factors ``aᵀ = P L U`` in ``a``'s own storage —
no copy, no second ``n²`` buffer — and :func:`lu_solve_transposed` solves
``a x = b`` as ``(aᵀ)ᵀ x = b`` with ``getrs`` (``trans=1``: the plain
transpose, also for complex ``a``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_solve

from repro.utils.errors import SingularMatrixError
from repro.utils.validation import check_square


def lu_factor_inplace(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Factor ``aᵀ`` with ``getrf``, overwriting ``a``.

    ``a`` is a square, C-contiguous, writeable array of a LAPACK dtype;
    then ``lu_t`` is the F-ordered view ``a.T`` (any other ``a`` is
    factored in an f2py copy, still correctly).  This is what
    ``scipy.linalg.lu_factor(a.T, overwrite_a=True)`` calls; ``info`` is
    read here because ``lu_factor`` reports a zero pivot as a
    ``LinAlgWarning``, and a process-wide warnings filter is no way to turn
    that into an error on a solver that factors on several threads.

    Returns
    -------
    (lu_t, piv):
        ``aᵀ``'s compact factors and LAPACK's 0-based pivots, for
        :func:`lu_solve_transposed`.

    Raises
    ------
    SingularMatrixError
        On an exactly-zero pivot.
    """
    check_square(a, "a")
    getrf, = get_lapack_funcs(("getrf",), (a,))
    lu_t, piv, info = getrf(a.T, overwrite_a=True)
    if info > 0:
        raise SingularMatrixError(f"LU pivot {info - 1} is exactly zero")
    return lu_t, piv


def lu_solve_transposed(lu_t: np.ndarray, piv: np.ndarray,
                        b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` from :func:`lu_factor_inplace`'s factors of
    ``aᵀ``: one ``getrs`` with ``trans=1``; ``b`` is not modified."""
    b = np.asarray(b)
    if b.shape[:1] != (len(piv),):  # getrs's own message names no sizes
        raise ValueError(
            f"rhs has {b.shape[0] if b.ndim else 1} rows, "
            f"expected {len(piv)}")
    return lu_solve((lu_t, piv), b, trans=1, check_finite=False)


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
