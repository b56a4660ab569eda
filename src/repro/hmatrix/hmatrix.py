"""Hierarchical low-rank matrix container (HODLR structure).

An :class:`HMatrix` is a square hierarchical matrix over a
:class:`~repro.hmatrix.cluster.ClusterTree`: diagonal blocks recurse,
off-diagonal blocks are stored as :class:`~repro.hmatrix.rk.RkMatrix`
(weak admissibility).  It supports

* assembly from a lazy kernel (:func:`build_hodlr`, ACA on off-diagonal
  blocks) or from an explicit dense matrix (:func:`hodlr_from_dense`),
* matvec / matmat,
* **compressed AXPY** of a dense sub-block into the structure
  (:meth:`HMatrix.axpy_dense`) — the paper's key primitive for folding the
  dense Schur blocks returned by the sparse solver into the compressed
  Schur complement (§IV-A2 / §IV-B2, "Compressed AXPY"), split into a
  thread-safe **pre-compress** stage (:meth:`HMatrix.precompress_axpy`,
  the SVD of every quadrant piece — runs off the caller thread) and a
  deterministic **commit** stage (:meth:`HMatrix.commit_axpy`) that
  appends to per-block :class:`~repro.hmatrix.rk.RkAccumulator` batches,
  recompressed when the owner calls :meth:`HMatrix.flush_accumulators`
  (or a batch outgrows its rank budget) — every rounding of a factored
  sum goes through :func:`~repro.hmatrix.rk.recompress` — and
* exact byte-level memory accounting (:meth:`HMatrix.nbytes`), maintained
  incrementally by the commit/flush path (delta returns) so per-panel
  accounting never re-walks the tree.

The public interface speaks *original* point indices; internally
everything lives in the cluster-permuted ordering.  Pending AXPY updates
are not readable: :meth:`HMatrix.to_dense`, :meth:`HMatrix.matvec` and
:meth:`HMatrix.copy` raise until the owner flushes.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.hmatrix.aca import aca
from repro.hmatrix.cluster import ClusterNode, ClusterTree
from repro.hmatrix.rk import RkAccumulator, RkMatrix, recompress
from repro.utils.errors import ConfigurationError


#: off-diagonal sides a node stores, by symmetry of the matrix
_SIDES = {False: ("12", "21"), True: ("21",)}


class HNode:
    """One diagonal block of the HODLR structure (permuted range ``[start, stop)``)."""

    __slots__ = ("start", "stop", "mid", "dense", "h11", "h22", "rk", "acc")

    def __init__(self, start: int, stop: int):
        self.start = start
        self.stop = stop
        self.mid: Optional[int] = None
        self.dense: Optional[np.ndarray] = None
        self.h11: Optional["HNode"] = None
        self.h22: Optional["HNode"] = None
        #: Stored off-diagonal blocks by side: ``"12"`` (upper) and ``"21"``
        #: (lower) — a symmetric matrix stores ``"21"`` only, its upper
        #: block being the plain transpose.
        self.rk: Dict[str, RkMatrix] = {}
        #: Deferred-recompression accumulators of the stored blocks
        #: (created lazily by commits; ``acc[side].base is rk[side]``).
        self.acc: Dict[str, RkAccumulator] = {}

    rk12 = property(lambda self: self.rk["12"])
    rk21 = property(lambda self: self.rk["21"])

    @property
    def size(self) -> int:
        return self.stop - self.start

    @property
    def is_leaf(self) -> bool:
        return self.dense is not None

    def pending_nbytes(self) -> int:
        """Unflushed accumulator bytes below (and at) this node."""
        if self.is_leaf:
            return 0
        own = sum(acc.pending_nbytes for acc in self.acc.values())
        return own + self.h11.pending_nbytes() + self.h22.pending_nbytes()

    def nbytes(self) -> int:
        if self.is_leaf:
            return self.dense.nbytes
        return (
            self.h11.nbytes()
            + self.h22.nbytes()
            + sum(rk.nbytes for rk in self.rk.values())
            + sum(acc.pending_nbytes for acc in self.acc.values())
        )

    def max_rank(self) -> int:
        if self.is_leaf:
            return 0
        return max(*(rk.rank for rk in self.rk.values()),
                   self.h11.max_rank(), self.h22.max_rank())

    def require_flushed(self, action: str) -> None:
        """Raise unless every AXPY update below this node is flushed: a
        reader of the bare factors would silently drop the pending ones."""
        if self.pending_nbytes() > 0:
            raise ConfigurationError(
                f"cannot {action} an HODLR node with unflushed AXPY"
                " accumulators — flush first"
            )

    def copy(self, sides: Optional[Tuple[str, ...]] = None) -> "HNode":
        """Deep copy; ``sides`` restricts it to those off-diagonal blocks."""
        self.require_flushed("copy")
        out = HNode(self.start, self.stop)
        out.mid = self.mid
        if self.is_leaf:
            out.dense = self.dense.copy()
        else:
            out.h11 = self.h11.copy(sides)
            out.h22 = self.h22.copy(sides)
            out.rk = {side: RkMatrix(rk.u.copy(), rk.v.copy())
                      for side, rk in self.rk.items()
                      if sides is None or side in sides}
        return out


class _LeafUpdate:
    """One exact dense-leaf piece of a planned compressed AXPY."""

    __slots__ = ("node", "rows", "cols", "piece")

    def __init__(self, node: HNode, rows: np.ndarray, cols: np.ndarray,
                 piece: np.ndarray):
        self.node = node
        self.rows = rows
        self.cols = cols
        self.piece = piece

    @property
    def nbytes(self) -> int:
        return self.piece.nbytes


class _FoldUpdate:
    """One pre-compressed off-diagonal piece of a planned compressed AXPY.

    ``small`` holds the compressed factors of the quadrant piece (alpha
    already applied); ``rows``/``cols`` are the *local* positions of the
    piece inside the target ``rk12``/``rk21`` block.
    """

    __slots__ = ("node", "side", "small", "rows", "cols")

    def __init__(self, node: HNode, side: str, small: RkMatrix,
                 rows: np.ndarray, cols: np.ndarray):
        self.node = node
        self.side = side
        self.small = small
        self.rows = rows
        self.cols = cols

    @property
    def nbytes(self) -> int:
        return self.small.nbytes


class AxpyPlan:
    """Pre-compressed update set for one dense panel.

    Produced by :meth:`HMatrix.precompress_axpy` (expensive, thread-safe:
    reads only the immutable tree structure) and applied by
    :meth:`HMatrix.commit_axpy` (cheap, must run serialized in a
    deterministic order).  The plan owns copies of everything it needs —
    the source panel may be freed as soon as the plan exists.
    """

    __slots__ = ("alpha", "leaves", "folds")

    def __init__(self, alpha):
        self.alpha = alpha
        self.leaves: List[_LeafUpdate] = []
        self.folds: List[_FoldUpdate] = []

    @property
    def nbytes(self) -> int:
        """Logical bytes the plan holds (leaf copies + compressed factors)."""
        return (sum(u.nbytes for u in self.leaves)
                + sum(f.nbytes for f in self.folds))


class PortableAxpyPlan:
    """Process-boundary form of an :class:`AxpyPlan`.

    An :class:`AxpyPlan` references :class:`HNode` objects directly, so a
    plan pickled in a worker process would arrive referencing *copies* of
    the tree.  The portable form addresses every update by the target
    node's permuted ``(start, stop)`` range instead — unique per diagonal
    block in a HODLR tree — and is resolved against the coordinator's
    real tree by :meth:`HMatrix.import_plan`.

    ``panel_compressions`` carries the worker-side SVD count so the
    coordinator's instrumentation stays faithful across backends.
    """

    __slots__ = ("alpha", "leaves", "folds", "panel_compressions")

    def __init__(self, alpha, leaves, folds, panel_compressions: int = 0):
        self.alpha = alpha
        #: list of ``(start, stop, rows, cols, piece)``
        self.leaves = leaves
        #: list of ``(start, stop, side, u, v, rows, cols)``
        self.folds = folds
        self.panel_compressions = int(panel_compressions)


class HMatrix:
    """Square hierarchical low-rank matrix over a cluster tree.

    ``symmetric`` (equal to its plain transpose, real or complex) makes it
    lower-stored: nodes keep, update and recompress their ``21`` block
    only and every reader takes the upper block as its transpose.
    """

    def __init__(self, tree: ClusterTree, root: HNode, tol: float, dtype,
                 symmetric: bool = False):
        self.tree = tree
        self.root = root
        self.tol = float(tol)
        self.dtype = np.dtype(dtype)
        self.symmetric = bool(symmetric)
        # compressed-AXPY instrumentation: panel-piece compressions happen
        # on runtime workers (precompress), so the counters share a leaf
        # lock (see LOCK_HIERARCHY in tools/analysis/config.py)
        self._axpy_lock = threading.Lock()
        self._n_panel_compressions = 0  # guarded-by: _axpy_lock
        self._n_offdiag_updates = 0  # guarded-by: _axpy_lock
        self._n_offdiag_recompressions = 0  # guarded-by: _axpy_lock
        self._node_by_range = None  # lazy {(start, stop): HNode} map

    # -- pickling (process-backend worker shipping) ------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_axpy_lock"]
        state["_node_by_range"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._axpy_lock = threading.Lock()

    # -- compressed-AXPY counters ------------------------------------------------
    @property
    def n_panel_compressions(self) -> int:
        """SVD compressions of dense quadrant pieces (precompress stage)."""
        with self._axpy_lock:
            return self._n_panel_compressions

    @property
    def n_offdiag_updates(self) -> int:
        """Low-rank updates folded into off-diagonal blocks (commit stage)."""
        with self._axpy_lock:
            return self._n_offdiag_updates

    @property
    def n_offdiag_recompressions(self) -> int:
        """QR+SVD roundings of off-diagonal blocks (budget trips + flushes)."""
        with self._axpy_lock:
            return self._n_offdiag_recompressions

    def _count(self, panel: int = 0, updates: int = 0, recomp: int = 0) -> None:
        with self._axpy_lock:
            self._n_panel_compressions += panel
            self._n_offdiag_updates += updates
            self._n_offdiag_recompressions += recomp

    # -- inspection -------------------------------------------------------------
    @property
    def sides(self) -> Tuple[str, ...]:
        """The off-diagonal sides every node of this matrix stores."""
        return _SIDES[self.symmetric]

    @property
    def shape(self) -> tuple:
        return (self.tree.n, self.tree.n)

    def nbytes(self) -> int:
        """Logical bytes of the compressed representation."""
        return self.root.nbytes()

    def dense_nbytes(self) -> int:
        """Bytes the same matrix would occupy uncompressed."""
        return self.tree.n * self.tree.n * self.dtype.itemsize

    def compression_ratio(self) -> float:
        """Compressed size as a fraction of the dense size (< 1 is a gain)."""
        return self.nbytes() / max(1, self.dense_nbytes())

    def max_rank(self) -> int:
        return self.root.max_rank()

    def copy(self) -> "HMatrix":
        return HMatrix(self.tree, self.root.copy(), self.tol, self.dtype,
                       self.symmetric)

    # -- conversion ---------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array in *original* index order."""
        self.root.require_flushed("read")
        n = self.tree.n
        out = np.zeros((n, n), dtype=self.dtype)

        def fill(node: HNode):
            if node.is_leaf:
                out[node.start : node.stop, node.start : node.stop] = node.dense
                return
            fill(node.h11)
            fill(node.h22)
            lower = node.rk21.to_dense()
            out[node.mid : node.stop, node.start : node.mid] = lower
            out[node.start : node.mid, node.mid : node.stop] = (
                lower.T if self.symmetric else node.rk12.to_dense()
            )

        fill(self.root)
        perm = self.tree.perm
        result = np.zeros_like(out)
        result[np.ix_(perm, perm)] = out
        return result

    # -- matvec ---------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` for a vector or a block of column vectors."""
        x = np.asarray(x)
        was_1d = x.ndim == 1
        xb = x[:, None] if was_1d else x
        if xb.shape[0] != self.tree.n:
            raise ConfigurationError(
                f"dimension mismatch: H-matrix has {self.tree.n} columns, "
                f"x has {xb.shape[0]} rows"
            )
        self.root.require_flushed("read")
        xp = xb[self.tree.perm]
        yp = self._matvec_node(self.root, xp)
        y = np.empty_like(yp)
        y[self.tree.perm] = yp
        return y[:, 0] if was_1d else y

    def _matvec_node(self, node: HNode, xp: np.ndarray) -> np.ndarray:
        if node.is_leaf:
            return node.dense @ xp
        cut = node.mid - node.start
        x1, x2 = xp[:cut], xp[cut:]
        # a symmetric matrix reads its upper block as the lower one's transpose
        y1 = self._matvec_node(node.h11, x1) + (
            node.rk21.rmatvec(x2) if self.symmetric else node.rk12.matvec(x2)
        )
        y2 = node.rk21.matvec(x1) + self._matvec_node(node.h22, x2)
        return np.concatenate([y1, y2], axis=0)

    # -- compressed AXPY ----------------------------------------------------------
    def axpy_dense(
        self,
        alpha,
        block: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> Tuple[int, int]:
        """``self[rows, cols] += alpha * block`` with on-the-fly compression.

        ``rows`` / ``cols`` are *original* indices (arbitrary subsets —
        e.g. a contiguous block of original Schur columns, which scatter
        across the cluster ordering).  The parts of the update falling on
        low-rank blocks are compressed at tolerance ``self.tol`` and
        appended to per-block :class:`~repro.hmatrix.rk.RkAccumulator`
        batches (flush with :meth:`flush_accumulators`); parts on dense
        leaves are added exactly.

        This is the paper's "Compressed AXPY": ``A_ss_i − Z_i`` in
        compressed multi-solve and ``A_ss_ij + X_ij`` in compressed
        multi-factorization.  Equivalent to :meth:`precompress_axpy`
        followed by :meth:`commit_axpy`; returns the same byte deltas.
        """
        return self.commit_axpy(self.precompress_axpy(alpha, block, rows, cols))

    def precompress_axpy(
        self,
        alpha,
        block: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> AxpyPlan:
        """Pre-compress stage of the compressed AXPY (thread-safe).

        Performs everything expensive about ``self[rows, cols] += alpha *
        block`` — the index permutation and the SVD of every quadrant
        piece — **without mutating the matrix**: it only reads the
        immutable tree structure, so independent panels can pre-compress
        concurrently on runtime workers while commits stay serialized.
        Returns an :class:`AxpyPlan` for :meth:`commit_axpy`.

        ``alpha`` is applied at the leaf/fold level: compressed factors
        are scaled in place and dense leaf pieces carry the scalar into
        the commit, so no scaled copy of the full panel is ever made.
        The one unavoidable temporary — the gather of ``block`` into the
        cluster-permuted order — is the caller's to account for (the
        runtime task budgets reserve it).
        """
        block = np.asarray(block)
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if block.shape != (len(rows), len(cols)):
            raise ConfigurationError(
                f"block shape {block.shape} does not match index sets "
                f"({len(rows)}, {len(cols)})"
            )
        # cluster-permuted positions, sorted; the stable sort orders gather
        # the panel into that ordering
        rp = self.tree.inv_perm[rows]
        cp = self.tree.inv_perm[cols]
        ro = np.argsort(rp, kind="stable")
        co = np.argsort(cp, kind="stable")
        rp, cp = rp[ro], cp[co]
        plan = AxpyPlan(alpha)
        self._plan_walk(plan, self.root, block[np.ix_(ro, co)], rp, cp,
                        0, len(rp), 0, len(cp))
        return plan

    def _plan_walk(self, plan: AxpyPlan, node: HNode, sub: np.ndarray,
                   rp: np.ndarray, cp: np.ndarray,
                   r0: int, r1: int, c0: int, c1: int) -> None:
        """The plan-building recursion of the compressed AXPY.

        ``rp[r0:r1]`` / ``cp[c0:c1]`` are the sorted permuted positions
        that fall inside ``node`` and ``sub[r0:r1, c0:c1]`` the piece of
        the gathered panel they address: a diagonal leaf takes an exact
        copy of it (owned by the plan), an off-diagonal quadrant of
        :attr:`sides` (a lower-stored matrix has no ``12`` piece) its
        rank-first compression (:meth:`RkMatrix.from_dense`) to
        :attr:`tol`, with ``alpha`` folded into the fresh factors in place.
        """
        if r0 == r1 or c0 == c1:
            return
        if node.is_leaf:
            plan.leaves.append(_LeafUpdate(
                node, rp[r0:r1] - node.start, cp[c0:c1] - node.start,
                np.array(sub[r0:r1, c0:c1]),
            ))
            return
        rm = r0 + int(np.searchsorted(rp[r0:r1], node.mid))
        cm = c0 + int(np.searchsorted(cp[c0:c1], node.mid))
        # diagonal quadrants recurse
        self._plan_walk(plan, node.h11, sub, rp, cp, r0, rm, c0, cm)
        self._plan_walk(plan, node.h22, sub, rp, cp, rm, r1, cm, c1)
        # off-diagonal quadrants: compress (the expensive part)
        quadrants = {"12": (r0, rm, cm, c1, node.start, node.mid),
                     "21": (rm, r1, c0, cm, node.mid, node.start)}
        for side in self.sides:
            ra, rb, ca, cb, row_off, col_off = quadrants[side]
            if ra == rb or ca == cb:
                continue
            small = RkMatrix.from_dense(sub[ra:rb, ca:cb], self.tol)
            self._count(panel=1)
            if small.rank == 0:
                continue
            if plan.alpha != 1:
                # scale the owned factor in place — never the full panel
                small.u *= plan.alpha
            plan.folds.append(_FoldUpdate(
                node, side, small, rp[ra:rb] - row_off, cp[ca:cb] - col_off,
            ))

    def commit_axpy(self, plan: AxpyPlan) -> Tuple[int, int]:
        """Commit stage of the compressed AXPY (must run serialized).

        Applies a plan produced by :meth:`precompress_axpy`: dense leaf
        pieces are added exactly; pre-compressed off-diagonal pieces are
        appended to the block's :class:`~repro.hmatrix.rk.RkAccumulator`,
        which is flushed (one QR+SVD recompression) only when its
        pending-rank budget (:data:`~repro.hmatrix.rk.MAX_ACCUMULATED_RANK`)
        trips; the owner says when the rest is recompressed, with
        :meth:`flush_accumulators`.

        Returns ``(store_delta, pending_delta)`` — the byte growth of the
        compressed structure and of the unflushed accumulators — so owners
        can maintain tracked sizes incrementally instead of re-walking the
        tree.  Committing plans in a fixed order makes the result
        bit-identical for any worker count.
        """
        alpha = plan.alpha
        for upd in plan.leaves:
            piece = upd.piece.astype(upd.node.dense.dtype, copy=False)
            target = np.ix_(upd.rows, upd.cols)
            if alpha == 1:
                upd.node.dense[target] += piece
            elif alpha == -1:
                upd.node.dense[target] -= piece
            else:
                upd.node.dense[target] += alpha * piece
        store_delta = 0
        pending_delta = 0
        for upd in plan.folds:
            node, side = upd.node, upd.side
            m, n = node.rk[side].shape
            u = np.zeros((m, upd.small.rank), dtype=upd.small.u.dtype)
            v = np.zeros((n, upd.small.rank), dtype=upd.small.v.dtype)
            u[upd.rows] = upd.small.u
            v[upd.cols] = upd.small.v
            acc = node.acc.get(side)
            if acc is None:
                acc = node.acc[side] = RkAccumulator(node.rk[side])
            pending_delta += acc.append(RkMatrix(u, v))
            self._count(updates=1)
            if acc.needs_flush:
                s_d, p_d = self._flush_side(node, side)
                store_delta += s_d
                pending_delta += p_d
        return store_delta, pending_delta

    def _flush_side(self, node: HNode, side: str) -> Tuple[int, int]:
        """Flush one off-diagonal accumulator; returns byte deltas."""
        acc = node.acc.get(side)
        if acc is None or acc.pending_rank == 0:
            return 0, 0
        pending = acc.pending_nbytes
        old = acc.base.nbytes
        new = node.rk[side] = acc.flush(self.tol)
        self._count(recomp=1)
        return new.nbytes - old, -pending

    def flush_accumulators(self) -> Tuple[int, int]:
        """Flush every pending accumulator (one recompression per block).

        Returns the ``(store_delta, pending_delta)`` byte deltas summed
        over the whole tree.  Idempotent: a second call is a no-op.
        Call before any operation that reads the bare ``rk`` factors
        structurally (factorization, copy).
        """
        store_delta = 0
        pending_delta = 0

        def walk(node: HNode) -> None:
            nonlocal store_delta, pending_delta
            if node.is_leaf:
                return
            for side in self.sides:
                s_d, p_d = self._flush_side(node, side)
                store_delta += s_d
                pending_delta += p_d
            walk(node.h11)
            walk(node.h22)

        walk(self.root)
        return store_delta, pending_delta

    def pending_accumulator_nbytes(self) -> int:
        """Bytes currently held by unflushed accumulators (tree walk)."""
        return self.root.pending_nbytes()

    # -- portable plans (process backend) ----------------------------------------
    def structure_skeleton(self) -> "HMatrix":
        """A values-free copy sharing this matrix's cluster structure.

        The skeleton carries only what :meth:`precompress_axpy` reads —
        the node ranges, split points, ``tree.inv_perm`` and the stored
        sides — with empty dense leaves and no off-diagonal factors.  It
        is small enough to ship to worker processes once, letting them
        plan panels against the exact same structure the coordinator
        commits into.
        """
        return _assemble(self.tree, self.tol, self.dtype, self.symmetric,
                         lambda c: np.empty((0, 0), dtype=self.dtype))

    def _range_node(self, start: int, stop: int) -> HNode:
        # lazy map, built once; only the consume thread imports plans so
        # the unguarded memoisation is safe
        if self._node_by_range is None:
            mapping = {}

            def walk(node: HNode) -> None:
                mapping[(node.start, node.stop)] = node
                if not node.is_leaf:
                    walk(node.h11)
                    walk(node.h22)

            walk(self.root)
            self._node_by_range = mapping
        return self._node_by_range[(start, stop)]

    @staticmethod
    def export_plan(plan: AxpyPlan,
                    panel_compressions: int = 0) -> PortableAxpyPlan:
        """Convert a plan into its node-reference-free portable form."""
        leaves = [(u.node.start, u.node.stop, u.rows, u.cols, u.piece)
                  for u in plan.leaves]
        folds = [(f.node.start, f.node.stop, f.side, f.small.u, f.small.v,
                  f.rows, f.cols)
                 for f in plan.folds]
        return PortableAxpyPlan(plan.alpha, leaves, folds, panel_compressions)

    def import_plan(self, portable: PortableAxpyPlan) -> AxpyPlan:
        """Resolve a :class:`PortableAxpyPlan` against *this* tree.

        Returns an :class:`AxpyPlan` ready for :meth:`commit_axpy`, and
        folds the worker-side SVD count into this matrix's
        instrumentation.
        """
        plan = AxpyPlan(portable.alpha)
        for start, stop, rows, cols, piece in portable.leaves:
            plan.leaves.append(
                _LeafUpdate(self._range_node(start, stop), rows, cols, piece)
            )
        for start, stop, side, u, v, rows, cols in portable.folds:
            plan.folds.append(
                _FoldUpdate(self._range_node(start, stop), side,
                            RkMatrix(u, v), rows, cols)
            )
        if portable.panel_compressions:
            self._count(panel=portable.panel_compressions)
        return plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HMatrix(n={self.tree.n}, dtype={self.dtype.name}, "
            f"tol={self.tol}, ratio={self.compression_ratio():.3f})"
        )


def _node_add_rk(node: HNode, rk: RkMatrix, tol: float) -> None:
    """Add a node-spanning low-rank update into the HODLR structure (the
    H-LU / H-LDLᵀ Schur update, in permuted coordinates).

    Each off-diagonal piece is rounded at ``tol`` on its own, then
    ``[block | piece]``, both by :func:`~repro.hmatrix.rk.recompress`; a
    piece that rounds to rank 0 leaves the block object untouched.
    """
    if rk.rank == 0:
        return
    if node.is_leaf:
        node.dense += rk.to_dense().astype(node.dense.dtype, copy=False)
        return
    cut = node.mid - node.start
    u1, u2 = rk.u[:cut], rk.u[cut:]
    v1, v2 = rk.v[:cut], rk.v[cut:]
    _node_add_rk(node.h11, RkMatrix(u1, v1), tol)
    _node_add_rk(node.h22, RkMatrix(u2, v2), tol)
    pieces = {"12": (u1, v2), "21": (u2, v1)}
    for side, block in node.rk.items():
        piece = RkMatrix(*pieces[side]).truncate(tol)
        if piece.rank:
            node.rk[side] = recompress([block.u, piece.u],
                                       [block.v, piece.v], tol)


def _assemble(tree: ClusterTree, tol: float, dtype, symmetric: bool,
              leaf, offdiag=None) -> HMatrix:
    """The one structure-building recursion: ``leaf(cluster)`` gives a
    diagonal leaf's dense block and ``offdiag(rows, cols)`` the
    :class:`RkMatrix` of two sibling clusters (none stored without it),
    asked only for the sides the matrix stores."""
    sides = _SIDES[bool(symmetric)]

    def build(cnode: ClusterNode) -> HNode:
        node = HNode(cnode.start, cnode.stop)
        if cnode.is_leaf:
            node.dense = leaf(cnode)
            return node
        c1, c2 = cnode.children
        node.mid = c1.stop
        node.h11 = build(c1)
        node.h22 = build(c2)
        if offdiag is not None:
            pairs = {"12": (c1, c2), "21": (c2, c1)}
            node.rk = {side: offdiag(*pairs[side]) for side in sides}
        return node

    return HMatrix(tree, build(tree.root), tol, dtype, symmetric)


def build_hodlr(
    op,
    tree: ClusterTree,
    tol: float = 1e-3,
    symmetric: bool = False,
) -> HMatrix:
    """Assemble an :class:`HMatrix` from a lazy kernel operator.

    ``op`` must expose ``shape``, ``dtype``, ``block(rows, cols)`` and
    ``permuted(perm)`` (see :class:`repro.fembem.bem.KernelMatrix`).
    Off-diagonal blocks are compressed by ACA straight from the kernel —
    the uncompressed block is never formed — on the operator reordered
    once into cluster order, so every cluster is a slice of its points.

    ``symmetric=True`` states that ``op`` equals its plain transpose
    (real or complex symmetric): the matrix is then lower-stored (see
    :class:`HMatrix`) and only the ``21`` blocks are ever compressed.
    """
    if op.shape != (tree.n, tree.n):
        raise ConfigurationError(
            f"operator shape {op.shape} does not match tree size {tree.n}"
        )
    op = op.permuted(tree.perm)
    dtype = np.dtype(op.dtype)

    def at(idx, lo):  # block-local slice or index array → cluster order
        return (slice(idx.start + lo, idx.stop + lo)
                if isinstance(idx, slice) else idx + lo)

    def compress(rows: ClusterNode, cols: ClusterNode) -> RkMatrix:
        return aca(
            lambda r, c: op.block(at(r, rows.start), at(c, cols.start)),
            (rows.size, cols.size), tol, dtype=dtype,
        )

    def leaf(cnode: ClusterNode) -> np.ndarray:
        own = slice(cnode.start, cnode.stop)
        return np.array(op.block(own, own), dtype=dtype)

    return _assemble(tree, tol, dtype, symmetric, leaf, compress)


def hodlr_from_dense(
    a: np.ndarray,
    tree: ClusterTree,
    tol: float = 1e-3,
    symmetric: bool = False,
) -> HMatrix:
    """Compress an explicit dense matrix (original ordering) into HODLR
    form (lower-stored when ``symmetric``, as in :func:`build_hodlr`)."""
    a = np.asarray(a)
    if a.shape != (tree.n, tree.n):
        raise ConfigurationError(
            f"matrix shape {a.shape} does not match tree size {tree.n}"
        )
    perm = tree.perm
    ap = a[np.ix_(perm, perm)]

    def piece(rows: ClusterNode, cols: ClusterNode) -> np.ndarray:
        return ap[rows.start : rows.stop, cols.start : cols.stop]

    return _assemble(
        tree, tol, a.dtype, symmetric, lambda c: np.array(piece(c, c)),
        lambda rows, cols: RkMatrix.from_dense(piece(rows, cols), tol),
    )


def hodlr_zeros(tree: ClusterTree, tol: float, dtype,
                symmetric: bool = False) -> HMatrix:
    """An all-zero HODLR matrix with the given structure."""
    return _assemble(
        tree, tol, dtype, symmetric,
        lambda c: np.zeros((c.size, c.size), dtype=dtype),
        lambda rows, cols: RkMatrix.zeros(rows.size, cols.size, dtype=dtype),
    )
