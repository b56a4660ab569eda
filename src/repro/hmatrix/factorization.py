"""Hierarchical LU factorization and solves for HODLR matrices.

The compressed Schur complement must itself be factored and solved in
compressed form (the paper's dense-solver role for HMAT).  For a HODLR
matrix

.. math::

    A = \\begin{pmatrix} A_{11} & U_{12} V_{12}^T \\\\
                         U_{21} V_{21}^T & A_{22} \\end{pmatrix}

the recursive LU factorization is

1. factor ``A_11 = L_11 U_11`` (recursively),
2. transform the off-diagonal factors in low-rank form:
   ``Ũ_12 = L_11^{-1} U_12`` and ``Ṽ_21 = U_11^{-T} V_21``,
3. apply the Schur update ``A_22 ← A_22 − U_21 (Ṽ_21^T Ũ_12) V_12^T``
   (a rank-``r`` update folded into the hierarchical structure with
   recompression),
4. factor ``A_22`` recursively.

Pivoting is confined to the dense leaf blocks (LAPACK ``getrf``), the same
compromise hierarchical solvers make in practice; the Schur complements
this package produces are strongly diagonally weighted, so this is stable
(checked by the relative-error measurements of the Fig. 11 bench).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import lu_factor

from repro.dense.lu import piv_to_perm
from repro.dense.triangular import RowBlockKernel, sweep_dtype
from repro.hmatrix.hmatrix import HMatrix, HNode, _node_add_rk
from repro.hmatrix.rk import RkMatrix
from repro.utils.errors import ConfigurationError, SingularMatrixError


class _FNode:
    """Factored counterpart of :class:`HNode`."""

    __slots__ = ("start", "stop", "mid", "lu", "perm", "f11", "f22", "rk12", "rk21")

    def __init__(self, start: int, stop: int):
        self.start = start
        self.stop = stop
        self.mid: Optional[int] = None
        self.lu: Optional[np.ndarray] = None
        self.perm: Optional[np.ndarray] = None  # leaf pivots as x[perm]
        self.f11: Optional["_FNode"] = None
        self.f22: Optional["_FNode"] = None
        self.rk12: Optional[RkMatrix] = None
        self.rk21: Optional[RkMatrix] = None

    @property
    def is_leaf(self) -> bool:
        return self.lu is not None

    def nbytes(self) -> int:
        if self.is_leaf:
            return self.lu.nbytes + self.perm.nbytes
        return (
            self.f11.nbytes() + self.f22.nbytes()
            + self.rk12.nbytes + self.rk21.nbytes
        )

    def max_rank(self) -> int:
        if self.is_leaf:
            return 0
        return max(
            self.rk12.rank, self.rk21.rank,
            self.f11.max_rank(), self.f22.max_rank(),
        )


class HLUFactorization:
    """LU factorization of a HODLR matrix; supports repeated solves.

    The input :class:`HMatrix` is not modified (the factorization works on
    a structural copy).  A lower-stored (symmetric) matrix has no ``12``
    blocks to transform: factor it with
    :class:`~repro.hmatrix.ldlt_factorization.HLDLTFactorization`.
    """

    def __init__(self, hm: HMatrix):
        if hm.symmetric:
            raise ConfigurationError(
                "H-LU reads both coupling blocks; a symmetric (lower-stored)"
                " HMatrix is factored by HLDLTFactorization"
            )
        self.tree = hm.tree
        self.tol = hm.tol
        self.dtype = hm.dtype
        self.root = self._factor(hm.root.copy(), RowBlockKernel(hm.dtype))

    # -- factorization --------------------------------------------------------
    def _factor(self, node: HNode, kern: RowBlockKernel) -> _FNode:
        out = _FNode(node.start, node.stop)
        if node.is_leaf:
            try:
                out.lu, piv = lu_factor(node.dense, check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(
                    f"H-LU leaf [{node.start}, {node.stop}) singular: {exc}"
                ) from exc
            if np.any(np.diag(out.lu) == 0):
                raise SingularMatrixError(
                    f"zero pivot in H-LU leaf [{node.start}, {node.stop})"
                )
            out.perm = piv_to_perm(piv)
            return out
        out.mid = node.mid
        out.f11 = self._factor(node.h11, kern)
        # the transformed coupling factors Ũ12 = L11⁻¹ U12, Ṽ21 = U11⁻ᵀ V21
        # are solved in place on the copies that are stored
        u12t = np.array(node.rk12.u, dtype=self.dtype, order="C")
        v21t = np.array(node.rk21.v, dtype=self.dtype, order="C")
        self._solve_lower(kern, out.f11, u12t, node.start)
        self._solve_upper_transpose(kern, out.f11, v21t, node.start)
        out.rk12 = RkMatrix(u12t, node.rk12.v)
        out.rk21 = RkMatrix(node.rk21.u, v21t)
        if out.rk12.rank and out.rk21.rank:
            core = v21t.T @ u12t
            update = RkMatrix(-(node.rk21.u @ core), node.rk12.v)
            _node_add_rk(node.h22, update.truncate(self.tol), self.tol)
        out.f22 = self._factor(node.h22, kern)
        return out

    # -- triangular solves, in place on the rows of one buffer ---------------
    # ``z[0]`` is row ``offset`` of the matrix; each solve overwrites the
    # node's rows ``z[start - offset : stop - offset]``.
    def _solve_lower(self, kern, node: _FNode, z, offset: int = 0) -> None:
        """``z ← L⁻¹ Pᵀ z`` (unit lower part, leaf pivots applied)."""
        rows = z[node.start - offset : node.stop - offset]
        if node.is_leaf:
            rows[:] = rows[node.perm]
            kern.solve(node.lu, rows, lower=True, unit=True)
            return
        cut = node.mid - node.start
        self._solve_lower(kern, node.f11, z, offset)
        kern.update_rk(rows[cut:], node.rk21.u, node.rk21.v, rows[:cut])
        self._solve_lower(kern, node.f22, z, offset)

    def _solve_upper(self, kern, node: _FNode, z) -> None:
        """``z ← U⁻¹ z`` (upper part of the factorization)."""
        rows = z[node.start : node.stop]
        if node.is_leaf:
            kern.solve(node.lu, rows, lower=False)
            return
        cut = node.mid - node.start
        self._solve_upper(kern, node.f22, z)
        kern.update_rk(rows[:cut], node.rk12.u, node.rk12.v, rows[cut:])
        self._solve_upper(kern, node.f11, z)

    def _solve_upper_transpose(self, kern, node: _FNode, z, offset: int) -> None:
        """``z ← U⁻ᵀ z`` (transforms the lower coupling factors)."""
        rows = z[node.start - offset : node.stop - offset]
        if node.is_leaf:
            kern.solve(node.lu, rows, lower=False, trans=True)
            return
        cut = node.mid - node.start
        self._solve_upper_transpose(kern, node.f11, z, offset)
        kern.update_rk(rows[cut:], node.rk12.u, node.rk12.v, rows[:cut],
                       trans=True)
        self._solve_upper_transpose(kern, node.f22, z, offset)

    # -- public API -----------------------------------------------------------
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` (vector or block of columns, original ordering)."""
        b = np.asarray(b)
        bb = b[:, None] if b.ndim == 1 else b
        # one permuted C-ordered buffer, swept in place (real factors sweep
        # the real view of a complex right-hand side)
        z = bb[self.tree.perm].astype(sweep_dtype(self.dtype, bb.dtype),
                                      order="C", copy=False)
        kern = RowBlockKernel(self.dtype)
        self._solve_lower(kern, self.root, z.view(self.dtype))
        self._solve_upper(kern, self.root, z.view(self.dtype))
        x = np.empty_like(z)
        x[self.tree.perm] = z
        return x[:, 0] if b.ndim == 1 else x

    def nbytes(self) -> int:
        """Logical bytes of the stored factors."""
        return self.root.nbytes()

    def max_rank(self) -> int:
        return self.root.max_rank()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HLUFactorization(n={self.tree.n}, tol={self.tol}, "
            f"max_rank={self.max_rank()})"
        )
