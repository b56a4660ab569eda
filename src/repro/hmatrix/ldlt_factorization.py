"""Hierarchical LDLᵀ factorization for symmetric HODLR matrices.

The paper factors symmetric blocks with LDLᵀ ("For complex (symmetric but
not positive definite) matrices, we rely on a LDLᵀ factorization", §II-A).
For a symmetric HODLR matrix

.. math::

    A = \\begin{pmatrix} A_{11} & B^T \\\\ B & A_{22} \\end{pmatrix},
    \\qquad B = U V^T ,

the recursion is

1. factor ``A_11 = L_1 D_1 L_1ᵀ`` (recursively);
2. transform the coupling in low-rank form:
   ``L_21 = B L_1⁻ᵀ D_1⁻¹ = U Ṽᵀ`` with ``Ṽ = D_1⁻¹ (L_1⁻¹ V)``;
3. symmetric Schur update
   ``A_22 ← A_22 − L_21 D_1 L_21ᵀ = A_22 − U (Ṽᵀ D_1 Ṽ) Uᵀ``
   (a symmetric rank-``r`` update folded into the structure);
4. factor ``A_22`` recursively.

Only *one* transformed coupling factor per level is stored (``U`` is
shared with the input), roughly halving the factor memory against the
H-LU of :mod:`repro.hmatrix.factorization` — the same saving the paper's
symmetric mode provides over unsymmetric factorizations.  Plain
transposes throughout keep complex *symmetric* inputs exact.

No pivoting (beyond none at all — LDLᵀ leaves run the unpivoted kernel):
intended for the strongly diagonally-weighted Schur complements this
package produces, like its dense counterpart :func:`repro.dense.blocked_ldlt`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dense.ldlt import blocked_ldlt
from repro.dense.triangular import RowBlockKernel, sweep_dtype
from repro.hmatrix.hmatrix import HMatrix, HNode, _node_add_rk
from repro.hmatrix.rk import RkMatrix
from repro.utils.errors import SingularMatrixError


class _LNode:
    """Factored counterpart of a symmetric :class:`HNode`."""

    __slots__ = ("start", "stop", "mid", "l", "f11", "f22", "u21", "v21t")

    def __init__(self, start: int, stop: int):
        self.start = start
        self.stop = stop
        self.mid: Optional[int] = None
        self.l: Optional[np.ndarray] = None       # leaf unit-lower factor
        self.f11: Optional["_LNode"] = None
        self.f22: Optional["_LNode"] = None
        self.u21: Optional[np.ndarray] = None     # coupling L21 = U21 Ṽᵀ
        self.v21t: Optional[np.ndarray] = None

    @property
    def is_leaf(self) -> bool:
        return self.l is not None

    def nbytes(self) -> int:
        if self.is_leaf:
            # one packed triangle (the dense buffer is square, but a
            # symmetric factorization stores a triangle + d)
            p = self.l.shape[0]
            return (p * (p + 1) // 2) * self.l.itemsize
        return (
            self.f11.nbytes() + self.f22.nbytes()
            + self.u21.nbytes + self.v21t.nbytes
        )


class HLDLTFactorization:
    """LDLᵀ factorization of a *symmetric* HODLR matrix.

    The input is not modified.  The symmetry of the input is trusted:
    only the ``21`` coupling blocks are copied, updated and recompressed
    (a lower-stored :class:`HMatrix` has no others); feeding an
    unsymmetric matrix silently factors its lower symmetric part.
    """

    def __init__(self, hm: HMatrix):
        self.tree = hm.tree
        self.tol = hm.tol
        self.dtype = hm.dtype
        self.d = np.empty(hm.tree.n, dtype=hm.dtype)
        self.root = self._factor(hm.root.copy(sides=("21",)),
                                 RowBlockKernel(hm.dtype))

    # -- factorization --------------------------------------------------------
    def _factor(self, node: HNode, kern: RowBlockKernel) -> _LNode:
        out = _LNode(node.start, node.stop)
        if node.is_leaf:
            try:
                l, dvec = blocked_ldlt(node.dense)
            except SingularMatrixError as exc:
                raise SingularMatrixError(
                    f"H-LDLT leaf [{node.start}, {node.stop}) failed: {exc}"
                ) from exc
            out.l = l
            self.d[node.start : node.stop] = dvec
            return out
        out.mid = node.mid
        out.f11 = self._factor(node.h11, kern)
        u21 = node.rk21.u
        v21 = node.rk21.v
        if node.rk21.rank:
            v_tilde = np.array(v21, dtype=self.dtype, order="C")
            self._forward(kern, out.f11, v_tilde, node.start)
            v_tilde /= self.d[node.start : node.mid][:, None]
            core = (v_tilde.T * self.d[node.start : node.mid][None, :]) @ v_tilde
            update = RkMatrix(-(u21 @ core), u21.copy())
            _node_add_rk(node.h22, update.truncate(self.tol), self.tol)
            out.v21t = v_tilde.T
        else:
            out.v21t = np.array(v21.T, dtype=self.dtype, order="C")
        out.u21 = np.array(u21, dtype=self.dtype, order="C")
        out.f22 = self._factor(node.h22, kern)
        return out

    # -- triangular sweeps, in place on the rows of one buffer ----------------
    def _forward(self, kern, node: _LNode, z: np.ndarray, offset: int) -> None:
        """``z ← L⁻¹ z`` on the node's rows; ``z[0]`` is row ``offset``."""
        rows = z[node.start - offset : node.stop - offset]
        if node.is_leaf:
            kern.solve(node.l, rows, lower=True, unit=True)
            return
        cut = node.mid - node.start
        self._forward(kern, node.f11, z, offset)
        kern.update_rk(rows[cut:], node.u21, node.v21t.T, rows[:cut])
        self._forward(kern, node.f22, z, offset)

    def _backward(self, kern, node: _LNode, z: np.ndarray) -> None:
        """``z ← L⁻ᵀ z`` on the node's rows."""
        rows = z[node.start : node.stop]
        if node.is_leaf:
            kern.solve(node.l, rows, lower=True, trans=True, unit=True)
            return
        cut = node.mid - node.start
        self._backward(kern, node.f22, z)
        kern.update_rk(rows[:cut], node.u21, node.v21t.T, rows[cut:],
                       trans=True)
        self._backward(kern, node.f11, z)

    # -- public API -----------------------------------------------------------
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` (vector or columns, original ordering)."""
        b = np.asarray(b)
        bb = b[:, None] if b.ndim == 1 else b
        # one permuted C-ordered buffer, swept in place (real factors sweep
        # the real view of a complex right-hand side)
        z = bb[self.tree.perm].astype(sweep_dtype(self.dtype, bb.dtype),
                                      order="C", copy=False)
        kern = RowBlockKernel(self.dtype)
        zr = z.view(self.dtype)
        self._forward(kern, self.root, zr, 0)
        zr /= self.d[:, None]
        self._backward(kern, self.root, zr)
        x = np.empty_like(z)
        x[self.tree.perm] = z
        return x[:, 0] if b.ndim == 1 else x

    def nbytes(self) -> int:
        """Logical bytes of the stored factors (packed triangles + d)."""
        return self.root.nbytes() + self.d.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HLDLTFactorization(n={self.tree.n}, tol={self.tol})"
