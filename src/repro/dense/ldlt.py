"""Blocked LDLᵀ factorization for symmetric matrices (no pivoting).

The paper factors symmetric blocks (real pipe case: LDLᵀ; complex symmetric
case: LDLᵀ with the *transpose*, not the conjugate transpose).  We
implement the unpivoted blocked right-looking variant: an unblocked LDLᵀ
kernel on each diagonal panel, a triangular solve for the panel below, and
one symmetric rank-``nb`` update of the trailing matrix's lower triangle,
one GEMM per row slab.

No pivoting means the input must have nonsingular leading principal
minors — true for the well-conditioned Schur complements and surface
operators this package produces (and for the paper's), and checked at
runtime via a pivot-magnitude guard.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.linalg import get_lapack_funcs, solve_triangular

from repro.dense.triangular import blocked_triangular_solve
from repro.utils.errors import SingularMatrixError
from repro.utils.validation import check_square

DEFAULT_BLOCK = 128


def _ldlt_columns(a: np.ndarray, tiny: float) -> Tuple[np.ndarray, np.ndarray]:
    """Unpivoted LDLᵀ of a small symmetric block, one column at a time.

    The reference :func:`_ldlt_kernel` falls back on; returns
    ``(L_unit_lower, d)`` and uses plain transpose (complex symmetric safe).
    """
    n = a.shape[0]
    l = np.array(a, copy=True)
    d = np.empty(n, dtype=l.dtype)
    for j in range(n):
        if j > 0:
            # l[j:, j] -= L[j:, :j] @ (d[:j] * L[j, :j])
            l[j:, j] -= l[j:, :j] @ (d[:j] * l[j, :j])
        dj = l[j, j]
        if abs(dj) <= tiny:
            raise SingularMatrixError(
                f"LDL^T pivot {j} is numerically zero (|{dj}| <= {tiny})"
            )
        d[j] = dj
        l[j, j] = 1.0
        if j + 1 < n:
            l[j + 1 :, j] /= dj
    return np.tril(l), d


def _ldlt_kernel(a: np.ndarray, tiny: float) -> Tuple[np.ndarray, np.ndarray]:
    """Unpivoted LDLᵀ of a small symmetric block (lower triangle read).

    LAPACK ``?sytrf`` (Bunch–Kaufman; ``zsytrf`` is plain-transpose
    symmetric too) is asked first: where it chose no interchange and no
    2×2 block and every pivot clears ``tiny``, its factors *are* the
    unpivoted factorization.  Any other tile takes :func:`_ldlt_columns`.
    """
    (sytrf,) = get_lapack_funcs(("sytrf",), (a,))
    ldu, ipiv, info = sytrf(a, lower=1)
    if info == 0 and np.array_equal(ipiv, np.arange(1, len(a) + 1)):
        d = np.diagonal(ldu).copy()
        if np.all(np.abs(d) > tiny):
            # ldu is LAPACK's own output buffer: make it L where it is
            ldu[~np.tri(len(a), dtype=bool)] = 0
            np.fill_diagonal(ldu, 1.0)
            return ldu, d
    return _ldlt_columns(a, tiny)


def blocked_ldlt(
    a: np.ndarray, block_size: int = DEFAULT_BLOCK, overwrite: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Factor symmetric ``a = L D Lᵀ`` (unit lower ``L``, diagonal ``d``).

    Works for real symmetric and complex *symmetric* (not Hermitian)
    matrices; only the lower triangle of ``a`` is referenced.  With
    ``overwrite`` (as ``scipy.linalg.lu_factor``'s ``overwrite_a``) an
    ``a`` of an inexact dtype becomes ``l`` itself, its strict upper
    triangle zeroed; the factors are bit for bit the copying call's.

    Returns
    -------
    (l, d):
        ``l`` is unit lower triangular (full storage, upper part zero),
        ``d`` the diagonal vector.
    """
    a = np.asarray(a)
    check_square(a, "a")
    n = a.shape[0]
    dtype = a.dtype if np.issubdtype(a.dtype, np.inexact) else np.float64
    if overwrite and a.dtype == dtype:
        l = a
        for r in range(0, n, block_size):  # np.tril by row slabs, in place
            l[r : r + block_size, r:] = np.tril(l[r : r + block_size, r:])
    else:
        l = np.tril(np.asarray(a, dtype=dtype))  # the one copy
    d = np.empty(n, dtype=dtype)
    tiny = float(np.finfo(np.dtype(dtype).char.lower() if np.issubdtype(dtype, np.complexfloating) else dtype).tiny) ** 0.5

    for k in range(0, n, block_size):
        kb = min(block_size, n - k)
        # lk stays the C-ordered view of l below: solve_triangular picks
        # its LAPACK call from the layout, the kernel's array is F-ordered
        lk = l[k : k + kb, k : k + kb]
        lk[:], dk = _ldlt_kernel(lk, tiny)
        d[k : k + kb] = dk
        if k + kb < n:
            # L21 = A21 L11^{-T} D11^{-1}
            a21 = l[k + kb :, k : k + kb]
            # solve X L11ᵀ = A21  →  L11 Xᵀ = A21ᵀ
            x = solve_triangular(
                lk, a21.T, lower=True, unit_diagonal=True, check_finite=False
            ).T
            x /= dk[None, :]
            l[k + kb :, k : k + kb] = x
            # trailing symmetric update: A22 -= L21 D11 L21ᵀ
            _lower_update(l[k + kb :, k + kb :], x * dk[None, :], x.T,
                          block_size)
    return l, d


def _lower_update(c: np.ndarray, w: np.ndarray, xt: np.ndarray,
                  block_size: int) -> None:
    """``c −= tril(w @ xt)`` in place, one ``block_size``-row slab at a
    time and only up to each slab's diagonal: half the flops of the full
    product and no trailing-size temporary (the product of a slab is a
    few MiB the allocator recycles; the whole trailing product would be a
    fresh mapping, and its page faults, per panel).  ``c``'s strict upper
    triangle is left as it is."""
    for r in range(0, len(c), block_size):
        e = min(r + block_size, len(c))
        c[r:e, :e] -= np.tril(w[r:e] @ xt[:, :e], r)


def ldlt_solve(l: np.ndarray, d: np.ndarray, b: np.ndarray,
               block_size: int = DEFAULT_BLOCK) -> np.ndarray:
    """Solve ``L D Lᵀ x = b`` from :func:`blocked_ldlt` output."""
    x = blocked_triangular_solve(l, b, True, unit=True, block_size=block_size)
    x /= d if x.ndim == 1 else d[:, None]
    return blocked_triangular_solve(l, x, True, trans=True, unit=True,
                                    block_size=block_size, overwrite_b=True)
