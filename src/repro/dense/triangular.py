"""The in-place triangular kernel, and blocked dense triangular solves.

:class:`RowBlockKernel` is the BLAS-3 kernel of the H-LU / H-LDLᵀ leaves
and couplings, the blocked dense solves below and the multifrontal
factor-time panels; the multifrontal solve sweeps make the same calls from
a plan validated once per factorization
(``MultifrontalFactorization._sweep_plan``).  It works on *row blocks* of
a C-ordered work buffer.  A C-ordered ``(p, m)`` block is an F-ordered
``(m, p)`` matrix, so ``op(A) X = B`` runs as ``Xᵀ op(A)ᵀ = Bᵀ``
(``trsm``, ``side=right``), ``X ← op(A) X`` as ``Xᵀ ← Xᵀ op(A)ᵀ``
(``trmm``) and ``C −= op(A) B`` as ``Cᵀ −= Bᵀ op(A)ᵀ`` (``gemm``), all
overwriting the block; a C-ordered factor is handed over as its
F-ordered ``.T``.  No call copies or casts a factor or a right-hand side —
the kernel asserts what it hands to BLAS is F-contiguous and of the BLAS
dtype, so a silent f2py copy cannot come back.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_blas_funcs

from repro.utils.validation import as_2d_array, check_square

DEFAULT_BLOCK = 128


def sweep_dtype(factor_dtype, rhs_dtype) -> np.dtype:
    """Work-buffer dtype of a sweep: the factors' precision, complex if
    either side is.  Real factors then sweep the real ``(n, 2m)`` view of
    a complex buffer (``buffer.view(factor_dtype)``)."""
    if np.issubdtype(rhs_dtype, np.complexfloating):
        return np.result_type(factor_dtype, np.complex64)
    return np.dtype(factor_dtype)


class RowBlockKernel:
    """``trsm`` / ``trmm`` / ``gemm`` of one dtype, in place on C-ordered
    row blocks.

    Matrix operands (``a``) are C- or F-contiguous arrays of the kernel
    dtype, and ``op(a)`` is ``aᵀ`` when ``trans`` (plain transpose, never
    conjugated); row blocks (``x``, ``b``, ``c``) are C-contiguous slices of
    a work buffer of the same dtype.  A one-column block is a contiguous
    vector and takes ``trsv`` / ``trmv`` / ``gemv`` on the same memory:
    ``trsm`` with one right-hand side is 3× slower than ``trsv`` on a
    150-row front, and ``zgemm`` with ``m = 1`` 3× slower than ``zgemv``
    (real ``gemm`` and ``gemv`` tie: the ``gemv`` branch is kept for
    complex only).  The width is the only dispatch; there are no size
    thresholds.
    """

    __slots__ = ("dtype", "_trsm", "_trmm", "_gemm", "_trsv", "_trmv",
                 "_gemv")

    def __init__(self, dtype):
        self.dtype = np.dtype(dtype)
        (self._trsm, self._trmm, self._gemm, self._trsv, self._trmv,
         self._gemv) = get_blas_funcs(
            ("trsm", "trmm", "gemm", "trsv", "trmv", "gemv"),
            dtype=self.dtype)

    def _check(self, *mats) -> None:
        """Every matrix BLAS is handed is F-contiguous, of the BLAS dtype."""
        for m in mats:
            assert m.flags.f_contiguous and m.dtype == self.dtype, (
                f"BLAS would copy a {m.dtype} block with strides "
                f"{m.strides}; the {self.dtype} kernel needs it contiguous"
            )

    # BLAS arguments are positional (f2py parses keywords slowly):
    #   trsm / trmm(alpha, a, b, side, lower, trans_a, diag, overwrite_b)
    #   trsv(a, x, incx, offx, lower, trans, diag, overwrite_x)
    #   trmv(a, x, offx, incx, lower, trans, diag, overwrite_x)
    #   gemm(alpha, a, b, beta, c, trans_a, trans_b, overwrite_c)
    #   gemv(alpha, a, x, beta, y, offx, incx, offy, incy, trans, overwrite_y)
    def solve(self, a, x, lower: bool, trans=False, unit=False) -> None:
        """``x ← op(a)⁻¹ x`` with ``a`` triangular (``lower`` names its triangle)."""
        if not a.flags.f_contiguous:  # C-ordered: the F matrix is aᵀ
            a, lower, trans = a.T, not lower, not trans
        xt = x.T
        self._check(a, xt)
        if len(xt) == 1:
            self._trsv(a, xt[0], 1, 0, lower, trans, unit, 1)
        else:
            self._trsm(1.0, a, xt, 1, lower, not trans, unit, 1)

    def multiply(self, a, x, lower: bool, trans=False, unit=False) -> None:
        """``x ← op(a) x`` with ``a`` triangular (``lower`` names its
        triangle): :meth:`solve` against a stored inverse."""
        if not a.flags.f_contiguous:
            a, lower, trans = a.T, not lower, not trans
        xt = x.T
        self._check(a, xt)
        if len(xt) == 1:
            self._trmv(a, xt[0], 0, 1, lower, trans, unit, 1)
        else:
            self._trmm(1.0, a, xt, 1, lower, not trans, unit, 1)

    def update(self, c, a, b, trans=False) -> None:
        """``c ← c − op(a) b``."""
        if not a.flags.f_contiguous:
            a, trans = a.T, not trans
        bt, ct = b.T, c.T
        self._check(a, bt, ct)
        if len(ct) == 1:
            self._gemv(-1.0, a, bt[0], 1.0, ct[0], 0, 1, 0, 1, trans, 1)
        elif len(ct):  # f2py gemm rejects an empty (zero-column) c
            self._gemm(-1.0, bt, a, 1.0, ct, 0, not trans, 1)

    def product(self, a, b, trans=False) -> np.ndarray:
        """``op(a) b`` as a new C-ordered row block."""
        if not a.flags.f_contiguous:
            a, trans = a.T, not trans
        bt = b.T
        self._check(a, bt)
        if len(bt) == 1:
            return self._gemv(1.0, a, bt[0], trans=trans)[:, None]
        return self._gemm(1.0, bt, a, trans_b=not trans).T

    def update_rk(self, c, u, v, b, trans=False) -> None:
        """``c ← c − op(u vᵀ) b`` through the rank-sized intermediate."""
        if trans:
            u, v = v, u
        if u.shape[1]:
            self.update(c, u, self.product(v, b, trans=True))


def blocked_triangular_solve(
    a: np.ndarray, b: np.ndarray, lower: bool, trans: bool = False,
    unit: bool = False, block_size: int = DEFAULT_BLOCK,
    overwrite_b: bool = False,
) -> np.ndarray:
    """Solve ``op(a) x = b`` for triangular ``a``, tile by tile.

    The triangle is split into ``block_size`` panels so the off-diagonal
    updates are matrix-matrix products, as a tiled dense solver performs
    them; each diagonal tile is one in-place :class:`RowBlockKernel` solve
    on the rows of ``x``.  ``op(a)`` is ``aᵀ`` when ``trans``.  With
    ``overwrite_b`` a C-ordered ``b`` of the sweep dtype is solved where it
    stands (the second sweep of a factorization's solve), else copied.
    """
    a = np.asarray(a)
    check_square(a, "a")
    if not np.issubdtype(a.dtype, np.inexact):
        a = a.astype(np.float64)
    b2 = as_2d_array(b, name="rhs")
    n = a.shape[0]
    if b2.shape[0] != n:
        raise ValueError(f"rhs has {b2.shape[0]} rows, expected {n}")
    x = (np.asarray if overwrite_b else np.array)(
        b2, dtype=sweep_dtype(a.dtype, b2.dtype), order="C")
    xr = x.view(a.dtype)
    kern = RowBlockKernel(a.dtype)
    op = a.T if trans else a
    starts = range(0, n, block_size)
    forward = lower != trans
    for start in (starts if forward else reversed(starts)):
        stop = min(n, start + block_size)
        tile = a[start:stop, start:stop]
        if not tile.flags.forc:  # strided inside a larger parent: copied,
            tile = tile.copy(order="K")  # explicitly, in the parent's order
        kern.solve(tile, xr[start:stop], lower, trans, unit)
        if forward and stop < n:
            xr[stop:] -= op[stop:, start:stop] @ xr[start:stop]
        elif not forward and start > 0:
            xr[:start] -= op[:start, start:stop] @ xr[start:stop]
    return x[:, 0] if np.ndim(b) == 1 else x


def solve_lower_triangular(
    l: np.ndarray, b: np.ndarray, block_size: int = DEFAULT_BLOCK
) -> np.ndarray:
    """Solve ``L x = b`` with ``L`` lower triangular (diagonal used)."""
    return blocked_triangular_solve(l, b, True, block_size=block_size)


def solve_unit_lower_triangular(
    l: np.ndarray, b: np.ndarray, block_size: int = DEFAULT_BLOCK
) -> np.ndarray:
    """Solve ``L x = b`` with implicit unit diagonal (strict lower used)."""
    return blocked_triangular_solve(l, b, True, unit=True,
                                    block_size=block_size)


def solve_upper_triangular(
    u: np.ndarray, b: np.ndarray, block_size: int = DEFAULT_BLOCK
) -> np.ndarray:
    """Solve ``U x = b`` with ``U`` upper triangular."""
    return blocked_triangular_solve(u, b, False, block_size=block_size)
