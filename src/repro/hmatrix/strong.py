"""General ℋ-matrices with strong (η) admissibility.

The production compressed container of this package is HODLR (weak
admissibility: every off-diagonal block is low rank) — see DESIGN.md for
the substitution note.  Real HMAT uses the *strong* admissibility
criterion

.. math::

    \\min(\\mathrm{diam}(t), \\mathrm{diam}(s)) \\le \\eta \\,
    \\mathrm{dist}(t, s)

which only compresses well-separated block pairs and keeps near-field
blocks dense, yielding bounded ranks where HODLR's top-level blocks grow.
This module provides the strong-admissibility format for **assembly,
matvec and storage** so its memory behaviour can be compared against
HODLR (ablation bench `bench_ablation_admissibility.py`); the compressed
*factorization* path of the couplings remains HODLR.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hmatrix.aca import aca
from repro.hmatrix.cluster import ClusterNode, ClusterTree
from repro.hmatrix.rk import RkMatrix
from repro.utils.errors import ConfigurationError


class StrongHNode:
    """One block of the strong-admissibility block cluster tree."""

    __slots__ = ("row", "col", "rk", "dense", "children")

    def __init__(self, row: ClusterNode, col: ClusterNode):
        self.row = row
        self.col = col
        self.rk: Optional[RkMatrix] = None
        self.dense: Optional[np.ndarray] = None
        self.children: list = []

    @property
    def kind(self) -> str:
        if self.rk is not None:
            return "rk"
        if self.dense is not None:
            return "dense"
        return "split"

    def nbytes(self) -> int:
        if self.rk is not None:
            return self.rk.nbytes
        if self.dense is not None:
            return self.dense.nbytes
        return sum(c.nbytes() for c in self.children)


def is_admissible(row: ClusterNode, col: ClusterNode, eta: float) -> bool:
    """Strong admissibility: ``min(diam) ≤ η·dist`` (and disjoint boxes)."""
    dist = row.distance_to(col)
    if dist <= 0.0:
        return False
    return min(row.diameter(), col.diameter()) <= eta * dist


class StrongHMatrix:
    """Square strong-admissibility ℋ-matrix over one cluster tree."""

    def __init__(self, tree: ClusterTree, root: StrongHNode, tol: float,
                 eta: float, dtype):
        self.tree = tree
        self.root = root
        self.tol = float(tol)
        self.eta = float(eta)
        self.dtype = np.dtype(dtype)

    @property
    def shape(self) -> tuple:
        return (self.tree.n, self.tree.n)

    def nbytes(self) -> int:
        return self.root.nbytes()

    def dense_nbytes(self) -> int:
        return self.tree.n * self.tree.n * self.dtype.itemsize

    def compression_ratio(self) -> float:
        return self.nbytes() / max(1, self.dense_nbytes())

    def block_counts(self) -> dict:
        """Number of Rk / dense leaves (structure statistics)."""
        counts = {"rk": 0, "dense": 0}

        def walk(node: StrongHNode):
            if node.kind == "split":
                for c in node.children:
                    walk(c)
            else:
                counts[node.kind] += 1

        walk(self.root)
        return counts

    def max_rank(self) -> int:
        best = 0

        def walk(node: StrongHNode):
            nonlocal best
            if node.kind == "rk":
                best = max(best, node.rk.rank)
            for c in node.children:
                walk(c)

        walk(self.root)
        return best

    # -- evaluation --------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` in original index order."""
        x = np.asarray(x)
        was_1d = x.ndim == 1
        xb = x[:, None] if was_1d else x
        if xb.shape[0] != self.tree.n:
            raise ConfigurationError(
                f"dimension mismatch: {self.tree.n} columns, "
                f"x has {xb.shape[0]} rows"
            )
        xp = xb[self.tree.perm]
        yp = np.zeros(
            (self.tree.n,) + xb.shape[1:],
            dtype=np.result_type(self.dtype, xb.dtype),
        )

        def walk(node: StrongHNode):
            if node.kind == "split":
                for c in node.children:
                    walk(c)
                return
            xs = xp[node.col.start : node.col.stop]
            if node.kind == "rk":
                yp[node.row.start : node.row.stop] += node.rk.matvec(xs)
            else:
                yp[node.row.start : node.row.stop] += node.dense @ xs

        walk(self.root)
        y = np.empty_like(yp)
        y[self.tree.perm] = yp
        return y[:, 0] if was_1d else y

    def to_dense(self) -> np.ndarray:
        """Materialise in original index order (tests only)."""
        out = np.zeros((self.tree.n, self.tree.n), dtype=self.dtype)

        def walk(node: StrongHNode):
            if node.kind == "split":
                for c in node.children:
                    walk(c)
                return
            block = node.rk.to_dense() if node.kind == "rk" else node.dense
            out[node.row.start : node.row.stop,
                node.col.start : node.col.stop] = block

        walk(self.root)
        perm = self.tree.perm
        result = np.zeros_like(out)
        result[np.ix_(perm, perm)] = out
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StrongHMatrix(n={self.tree.n}, eta={self.eta}, "
            f"ratio={self.compression_ratio():.3f})"
        )


def build_strong_hmatrix(
    op,
    tree: ClusterTree,
    tol: float = 1e-3,
    eta: float = 2.0,
    max_rank: Optional[int] = None,
) -> StrongHMatrix:
    """Assemble a strong-admissibility ℋ-matrix from a lazy kernel.

    ``op`` must expose ``shape``, ``dtype`` and ``block(rows, cols)`` in
    original indices.  Admissible blocks are compressed by ACA straight
    from the kernel; inadmissible block pairs recurse until either side is
    a leaf, where the (near-field, small) block is stored dense.
    """
    if op.shape != (tree.n, tree.n):
        raise ConfigurationError(
            f"operator shape {op.shape} does not match tree size {tree.n}"
        )
    if eta <= 0:
        raise ConfigurationError("eta must be positive")
    perm = tree.perm
    dtype = np.dtype(op.dtype)

    def build(row: ClusterNode, col: ClusterNode) -> StrongHNode:
        node = StrongHNode(row, col)
        rows = perm[row.start : row.stop]
        cols = perm[col.start : col.stop]
        if is_admissible(row, col, eta):
            node.rk = aca(
                lambda r, c: op.block(rows[r], cols[c]),
                (len(rows), len(cols)),
                tol,
                max_rank=max_rank,
                dtype=dtype,
            )
            return node
        if row.is_leaf or col.is_leaf:
            node.dense = np.array(op.block(rows, cols), dtype=dtype)
            return node
        for rc in row.children:
            for cc in col.children:
                node.children.append(build(rc, cc))
        return node

    return StrongHMatrix(tree, build(tree.root, tree.root), tol, eta, dtype)
