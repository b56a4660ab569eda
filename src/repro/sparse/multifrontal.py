"""Numeric multifrontal factorization, Schur complement and solves.

The factorization processes one dense *front* per partition-tree node in
postorder (paper §II-C building blocks, reproduced from scratch):

1. **assemble** the front: scatter the matrix entries whose first-eliminated
   variable is owned by the node, then *extend-add* the children's
   contribution blocks;
2. **partially factorize** the front's pivot block (LDLᵀ for symmetric
   values, LU with pivoting confined to the pivot block otherwise), invert
   its triangular factors in place (LAPACK ``?trtri``: the panels and
   both solve sweeps then multiply, ``trmm``, instead of solving, ``trsm``)
   and compute the coupling panels;
3. optionally **compress** the stored panels (BLR, see
   :mod:`repro.sparse.blr`); the contribution block is always formed from
   the exact panels;
4. pass the contribution block ``F22 − L21·(...)`` to the parent.

Variables marked as *Schur* are never eliminated; they accumulate through
the boundaries up to the root, whose final contribution block — combined
with the matrix entries between Schur variables — is the dense Schur
complement.  Faithful to the MUMPS API the paper builds on, the Schur
complement is **always returned as a non-compressed dense matrix**.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_blas_funcs, get_lapack_funcs, lu_factor

from repro.dense.lu import piv_to_perm
from repro.dense.ldlt import blocked_ldlt
from repro.dense.triangular import RowBlockKernel, sweep_dtype
from repro.hmatrix.rk import RkMatrix
from repro.memory.tracker import MemoryTracker
from repro.sparse.blr import (
    BLRConfig,
    compress_panel,
    panel_nbytes,
    rank_tested,
)
from repro.sparse.symbolic import SymbolicFactorization
from repro.utils.errors import ConfigurationError, SingularMatrixError

#: Column-panel width of the forward/backward solve sweeps: right-hand
#: sides wider than this are processed in blocks so the triangular solves
#: and panel products stay in cache-resident BLAS-3 shapes.
DEFAULT_RHS_PANEL = 256


def _invert_triangle(a: np.ndarray, lower: bool, unit: bool = False) -> None:
    """``?trtri`` in place on one triangle of the C- or F-contiguous ``a``;
    the other triangle (and, when ``unit``, the diagonal) is not touched."""
    if not a.flags.f_contiguous:  # C-ordered: the F matrix is aᵀ
        a, lower = a.T, not lower
    (trtri,) = get_lapack_funcs(("trtri",), (a,))
    inv, info = trtri(a, lower, unit, 1)
    assert np.may_share_memory(inv, a), "trtri copied the pivot block"
    if info:
        raise SingularMatrixError(f"front pivot block failed: trtri info {info}")


def _blas_view(a, dtype):
    """``a`` as BLAS takes it without a copy: its F-contiguous view and
    whether that view is ``aᵀ`` (``a`` was C-ordered)."""
    flip = not a.flags.f_contiguous
    if flip:
        a = a.T
    assert a.flags.f_contiguous and a.dtype == dtype, (
        f"BLAS would copy a {a.dtype} factor with strides {a.strides}; "
        f"the {dtype} sweep needs it contiguous"
    )
    return a, flip


def _multiply_step(a, dtype, lower, trans=False, unit=False):
    """``x ← op(a) x`` as ``RowBlockKernel.multiply`` calls BLAS:
    ``(a, lower, trans, unit)`` with a C-ordered ``a``'s flip applied."""
    a, flip = _blas_view(a, dtype)
    return a, lower != flip, trans != flip, unit


def _update_step(panel, dtype, trans=False):
    """``c ← c − op(panel) b`` as ``RowBlockKernel.update`` /
    ``update_rk`` call BLAS: ``(a, trans, v, vtrans)``, where an Rk panel
    first forms the rank-sized ``op(v) b`` (``v`` is ``None`` for a dense
    panel); ``None`` for a rank-0 panel, whose update is a no-op."""
    if isinstance(panel, RkMatrix):
        u, v = (panel.v, panel.u) if trans else (panel.u, panel.v)
        if not u.shape[1]:
            return None
        (u, uflip), (v, vflip) = _blas_view(u, dtype), _blas_view(v, dtype)
        return u, uflip, v, not vflip
    a, flip = _blas_view(panel, dtype)
    return a, trans != flip, None, None


class FrontArena:
    """Reusable dense front workspace for the multifrontal numeric phase.

    One buffer, sized for the largest front (``peak_front_size²``
    entries), replaces the per-front ``np.zeros`` allocations: the numeric
    phase asks for a zeroed ``(nf, nf)`` :meth:`frame` per tree node and
    the same memory is recycled across the fronts of one factorization,
    which owns the arena and frees it when its numeric phase ends.

    The tracker is charged **once** under the ``front_arena`` category and
    the charge follows the capacity through :meth:`ensure` growth; the
    lifecycle is ``FrontArena(...)`` → any number of ``frame``/``ensure``
    calls → :meth:`free`.  Frames are *views* into the buffer:
    only one is valid at a time (the multifrontal loop uses exactly one),
    and anything that must outlive the next frame has to be copied out.
    """

    def __init__(self, tracker: Optional[MemoryTracker] = None):
        self.tracker = tracker if tracker is not None else MemoryTracker()
        self._buf = np.empty(0, dtype=np.float64)
        self._alloc = self.tracker.allocate(
            0, category="front_arena", label="front workspace arena"
        )
        self._freed = False

    @property
    def capacity(self) -> int:
        """Entries the buffer can hold without growing."""
        return self._buf.size

    @property
    def nbytes(self) -> int:
        return self._buf.nbytes

    def ensure(self, n: int, dtype) -> None:
        """Grow the buffer to hold an ``(n, n)`` frame of ``dtype``."""
        if self._freed:
            raise RuntimeError("arena has been freed")
        dtype = np.dtype(dtype)
        need = int(n) * int(n)
        if self._buf.dtype != dtype or self._buf.size < need:
            size = max(need, self._buf.size if self._buf.dtype == dtype
                       else 0)
            self._buf = np.empty(size, dtype=dtype)
            self._alloc.resize(self._buf.nbytes)

    def frame(self, n: int, dtype) -> np.ndarray:
        """A zeroed ``(n, n)`` view, invalidating any previous frame."""
        self.ensure(n, dtype)
        view = self._buf[: n * n].reshape(n, n)
        view.fill(0)
        return view

    def free(self) -> None:
        """Release the buffer and its tracker charge (idempotent)."""
        if self._freed:
            return
        self._freed = True
        self._buf = np.empty(0, dtype=np.float64)
        self._alloc.free()


class _FrontFactor:
    """Stored factors of one front, each once, in the layout the solve
    kernel consumes (C- or F-contiguous, of the factorization dtype)."""

    __slots__ = ("mode", "l11", "d", "perm", "l21", "u12", "alloc")

    def __init__(self, mode: str):
        self.mode = mode
        # inverted pivot factors: L11⁻¹ (ldlt, unit lower), or L11⁻¹
        # (strict lower, unit diagonal) and U11⁻¹ (upper) packed (lu)
        self.l11 = None
        self.d = None     # ldlt diagonal
        self.perm = None  # lu pivots (local) as the gather x[perm]; None = identity
        self.l21 = None   # (n_bnd, n_own) panel, possibly Rk
        self.u12 = None   # (n_own, n_bnd) panel (lu mode only), possibly Rk
        self.alloc = None

    def __getstate__(self):
        # the tracker handle stays behind when factors are pickled to a
        # process-backend worker: accounting is coordinator-side by design
        return {s: getattr(self, s) for s in self.__slots__ if s != "alloc"}

    def __setstate__(self, state):
        for s in self.__slots__:
            setattr(self, s, state.get(s))

    def nbytes(self) -> int:
        total = 0
        if self.l11 is not None:
            if self.mode == "ldlt":
                # logical bytes of the packed unit-lower triangle (the
                # physical buffer is square for BLAS-friendliness, but a
                # symmetric solver stores one triangle — this is what the
                # paper's duplicated-storage comparison counts)
                p = self.l11.shape[0]
                total += (p * (p + 1) // 2) * self.l11.itemsize
            else:
                total += self.l11.nbytes
        if self.d is not None:
            total += self.d.nbytes
        if self.perm is not None:
            total += self.perm.nbytes
        if self.l21 is not None:
            total += panel_nbytes(self.l21)
        if self.u12 is not None:
            total += panel_nbytes(self.u12)
        return total


class MultifrontalFactorization:
    """Factorization of a sparse matrix along a partition tree.

    Built by :class:`repro.sparse.solver.SparseSolver`; do not construct
    directly unless you already hold a :class:`SymbolicFactorization`.

    With ``keep_factors=False`` the numeric loop runs only for the Schur
    block (MUMPS's ``ICNTL(31)=1``, "discard factors"): every front is
    still assembled, eliminated and passes on the contribution block it
    computes from its exact panels, so :attr:`schur` is bit for bit the
    kept factorization's, but no front's factors are stored, BLR-compressed
    or charged.  Such a factorization cannot solve;
    :meth:`~repro.sparse.solver.SparseSolver.schur_complement` hands out
    only its Schur block.

    Attributes
    ----------
    schur:
        Dense Schur complement ``A₂₂ − A₂₁ A₁₁⁻¹ A₁₂`` over the Schur
        variables (``None`` when no Schur variables were requested).
        Dense by design — this mirrors the MUMPS API limitation the paper
        works around.
    """

    def __init__(
        self,
        a: sp.spmatrix,
        symbolic: SymbolicFactorization,
        symmetric_values: bool,
        blr: Optional[BLRConfig] = None,
        tracker: Optional[MemoryTracker] = None,
        keep_factors: bool = True,
    ):
        self.symbolic = symbolic
        self.mode = "ldlt" if symmetric_values else "lu"
        self.blr = blr
        self.keep_factors = keep_factors
        self.tracker = tracker if tracker is not None else MemoryTracker()
        a = a.tocsr()
        if a.shape != (symbolic.n_full, symbolic.n_full):
            raise ConfigurationError(
                f"matrix shape {a.shape} does not match symbolic analysis "
                f"({symbolic.n_full})"
            )
        dtype = a.dtype if np.issubdtype(a.dtype, np.inexact) else np.float64
        self.dtype = np.dtype(dtype)
        self._fronts: List[_FrontFactor] = []
        self.schur: Optional[np.ndarray] = None
        self._schur_alloc = None
        self._plan = None  # see _sweep_plan; built once factors are kept
        self._freed = False
        arena = FrontArena(self.tracker)
        try:
            self._factorize(a, arena)
        finally:
            arena.free()

    # -- pickling (process-backend worker shipping) ------------------------------
    def __getstate__(self):
        """Detached state for shipping factors to a worker process.

        The coordinator keeps all :class:`MemoryTracker` accounting; the
        worker-side copy carries a fresh untracked tracker, so its nested
        ``solve`` workspaces charge nothing (their budget is reserved as
        admission headroom on the coordinator).
        """
        state = self.__dict__.copy()
        state["tracker"] = None
        state["_schur_alloc"] = None
        state["_plan"] = None  # its .T views would pickle as copies
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.tracker = MemoryTracker()
        if self.keep_factors and not self._freed:
            self._plan = self._sweep_plan()

    # -- numeric factorization ----------------------------------------------------
    def _factorize(self, a: sp.csr_matrix, arena: FrontArena) -> None:
        """One dense partial factorization per front, in postorder.

        Everything index-shaped is decided before the loop: the entries of
        ``a`` arrive as one flat scatter per front (:meth:`_entry_plan`),
        a child's contribution block through its positions in the parent
        (``FrontSymbolic.in_parent``, from the symbolic analysis).
        """
        sym = self.symbolic
        n_schur = len(sym.schur_vars)
        updates: Dict[int, Tuple[np.ndarray, object]] = {}
        try:
            if n_schur:
                self.schur = np.zeros((n_schur, n_schur), dtype=self.dtype)
                self._schur_alloc = self.tracker.track_array(
                    self.schur, category="schur_dense",
                    label="dense Schur block")
            pos, vals, start = self._entry_plan(a)
            # size the arena once from the symbolic peak-front estimate;
            # every front borrows a zeroed view of the same buffer
            arena.ensure(sym.peak_front_size(), self.dtype)
            kern = RowBlockKernel(self.dtype)
            for i, f in enumerate(sym.fronts):
                self._front(i, f, arena, kern, updates,
                            pos[start[i]:start[i + 1]],
                            vals[start[i]:start[i + 1]])
            if self.keep_factors:
                self._plan = self._sweep_plan()
        except BaseException:
            # a failed factorization is never handed out: release its charges
            for _, ualloc in updates.values():
                ualloc.free()
            self.free()
            raise
        if updates:
            raise AssertionError("unconsumed contribution blocks remain")

    def _front(self, i, f, arena, kern, updates, pos, vals) -> None:
        """Assemble, partially factorize and pass on front ``i``."""
        fronts = self.symbolic.fronts
        nf, p = f.front_size, f.n_own
        fmat = arena.frame(nf, self.dtype)
        flat = fmat.reshape(-1)
        flat[pos] = vals  # each position once, into a zeroed frame
        for ci in f.child_indices:
            at = fronts[ci].in_parent
            if at is None:  # a disconnected subtree passes nothing up
                continue
            upd, ualloc = updates.pop(ci)
            flat[(at * nf)[:, None] + at] += upd
            ualloc.free()

        # the contribution block leaves the arena once, then is updated in
        # place; the root's is the Schur block itself when its boundary is
        # every Schur variable (bnd_pos ascends, so they are in order)
        is_root = self.schur is not None and i == len(fronts) - 1
        if is_root and nf - p == len(self.schur):
            upd = self.schur
            upd += fmat[p:, p:]
        else:
            upd = np.array(fmat[p:, p:])
        factor = _FrontFactor(self.mode)
        if p:
            (self._eliminate_ldlt if self.mode == "ldlt"
             else self._eliminate_lu)(fmat, p, factor, kern, upd)
        if self.keep_factors:
            self._fronts.append(factor)
            if p:
                factor.alloc = self.tracker.allocate(
                    factor.nbytes(), category="sparse_factor",
                    label=f"front {f.node_index} factors",
                )
        if is_root:
            if upd is not self.schur:  # some Schur variable is uncoupled
                spos = f.bnd_pos - self.symbolic.n_interior
                self.schur[np.ix_(spos, spos)] += upd
        elif nf > p:
            updates[i] = (upd, self.tracker.track_array(
                upd, category="update_stack",
                label=f"update of front {f.node_index}",
            ))

    def _entry_plan(self, a: sp.csr_matrix):
        """Where every entry of ``a`` goes, for the whole factorization.

        ``a[r, c]`` belongs to the front owning the earlier-eliminated of
        ``r`` and ``c``, at ``(local(r), local(c))``: a pivot variable at
        ``e − lo``, a boundary variable at ``n_own`` plus its rank in the
        front's ``bnd_pos`` (one ``searchsorted`` over the keys
        ``front·n_full + bnd_pos`` of all fronts).  Returns the flat
        positions inside the fronts, the values, and the offsets of each
        front's segment; entries between two Schur variables go straight
        into the Schur block.  Duplicates are summed first and explicit
        zeros dropped (the analysed pattern does not hold them), so every
        position occurs once.
        """
        sym = self.symbolic
        n_int, n_full = sym.n_interior, sym.n_full
        if not a.has_canonical_format:
            a = a.copy()
            a.sum_duplicates()
        coo = a.tocoo()
        live = coo.data != 0
        er, ec = sym.elim_pos[coo.row[live]], sym.elim_pos[coo.col[live]]
        vals = coo.data[live]
        first = np.minimum(er, ec)
        if len(sym.schur_vars):
            border = first >= n_int
            self.schur[er[border] - n_int, ec[border] - n_int] = vals[border]
            inner = ~border
            er, ec, vals, first = er[inner], ec[inner], vals[inner], first[inner]
        hi = sym.front_hi
        lo = np.concatenate(([0], hi[:-1]))
        n_own = hi - lo
        n_bnd = np.array([f.n_bnd for f in sym.fronts], dtype=np.intp)
        bnd_start = np.cumsum(n_bnd) - n_bnd
        keys = np.concatenate([f.bnd_pos for f in sym.fronts] + [[-1]])
        keys[:-1] += np.repeat(np.arange(len(hi)) * n_full, n_bnd)
        owner = np.searchsorted(hi, first, side="right")

        def local(e):
            out = e - lo[owner]
            later = np.flatnonzero(e >= hi[owner])
            own = owner[later]
            want = own * n_full + e[later]
            at = np.searchsorted(keys[:-1], want)
            if np.any(keys[at] != want):  # keys[-1] never matches
                raise ConfigurationError(
                    "the matrix has nonzeros outside the analysed pattern")
            out[later] = n_own[own] + at - bnd_start[own]
            return out

        pos = local(er) * (n_own + n_bnd)[owner] + local(ec)
        # a stable sort of 16-bit keys is a radix sort
        by_front = np.argsort(owner.astype(np.min_scalar_type(len(hi))),
                              kind="stable")
        start = np.concatenate(
            ([0], np.cumsum(np.bincount(owner, minlength=len(hi)))))
        narrow = np.min_scalar_type(sym.peak_front_size() ** 2)
        return pos[by_front].astype(narrow), vals[by_front], start

    def _eliminate_ldlt(self, fmat, p, factor, kern, upd) -> None:
        """Factor the pivot block; ``upd ← upd − L21 D L21ᵀ`` in place."""
        try:
            l11, d = blocked_ldlt(fmat[:p, :p])
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"front pivot block failed: {exc}"
            ) from exc
        _invert_triangle(l11, lower=True, unit=True)
        factor.l11 = l11
        factor.d = d
        if fmat.shape[0] == p:
            factor.l21 = np.zeros((0, p), dtype=fmat.dtype)
            return
        # L21ᵀ = D⁻¹ L11⁻¹ F21ᵀ, in place on the rows of the stored panel
        l21t = np.array(fmat[p:, :p].T, order="C")
        kern.multiply(l11, l21t, lower=True, unit=True)
        l21t /= d[:, None]
        l21 = l21t.T
        factor.l21 = self._stored(l21)
        kern.update(upd, l21 * d, l21t)

    def _eliminate_lu(self, fmat, p, factor, kern, upd) -> None:
        """Factor the pivot block; ``upd ← upd − L21 U12`` in place."""
        try:
            lu11, piv = lu_factor(fmat[:p, :p], check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"front pivot block failed: {exc}"
            ) from exc
        if np.any(np.diag(lu11) == 0):
            raise SingularMatrixError("zero pivot in frontal LU")
        _invert_triangle(lu11, lower=True, unit=True)
        _invert_triangle(lu11, lower=False)
        factor.l11 = lu11
        perm = piv_to_perm(piv)
        if not np.array_equal(perm, np.arange(p)):
            factor.perm = perm  # most fronts never pivot: no gather at solve
        if fmat.shape[0] == p:
            factor.l21 = np.zeros((0, p), dtype=fmat.dtype)
            factor.u12 = np.zeros((p, 0), dtype=fmat.dtype)
            return
        # U12 = L11⁻¹ Pᵀ F12 and L21ᵀ = U11⁻ᵀ F21ᵀ, each multiplied in
        # place on the rows of the panel that is stored
        u12 = fmat[:p, p:][perm]
        kern.multiply(lu11, u12, lower=True, unit=True)
        l21t = np.array(fmat[p:, :p].T, order="C")
        kern.multiply(lu11, l21t, lower=False, trans=True)
        l21 = l21t.T
        factor.l21 = self._stored(l21)
        factor.u12 = self._stored(u12)
        kern.update(upd, l21, u12)

    def _stored(self, panel):
        """A coupling panel as the front keeps it: BLR-compressed when
        factors are kept, the exact panel (soon dropped) otherwise."""
        return compress_panel(panel, self.blr) if self.keep_factors else panel

    # -- inspection ---------------------------------------------------------------
    @property
    def factor_bytes(self) -> int:
        """Stored factor bytes across all fronts."""
        return sum(f.nbytes() for f in self._fronts)

    def statistics(self) -> dict:
        """Factorization statistics (MUMPS-INFOG-style summary).

        Returns front counts, the largest front, stored factor entries and
        a flop estimate (``Σ 2/3·p³ + 2·p²·q + 2·p·q²`` per front — the
        partial dense factorization cost), plus how many panels BLR
        rank-tested (``blr_tested_panels``) and how many of those it kept
        compressed (``blr_compressed_panels``).
        """
        n_fronts = 0
        peak_front = 0
        factor_entries = 0
        flops = 0.0
        compressed_panels = 0
        tested_panels = 0
        total_panels = 0
        for sf, f in zip(self.symbolic.fronts, self._fronts):
            n_fronts += 1
            p, q = sf.n_own, sf.n_bnd
            peak_front = max(peak_front, p + q)
            factor_entries += p * p + 2 * p * q
            flops += (2.0 / 3.0) * p**3 + 2.0 * p * p * q + 2.0 * p * q * q
            for panel in (f.l21, f.u12):
                if panel is None:
                    continue
                total_panels += 1
                tested_panels += rank_tested(panel.shape, self.blr)
                if isinstance(panel, RkMatrix):
                    compressed_panels += 1
        return {
            "mode": self.mode,
            "n_fronts": n_fronts,
            "peak_front_size": peak_front,
            "factor_entries": factor_entries,
            "factor_bytes": self.factor_bytes,
            "flops_estimate": flops,
            "blr_compressed_panels": compressed_panels,
            "blr_tested_panels": tested_panels,
            "blr_total_panels": total_panels,
        }

    @property
    def n_interior(self) -> int:
        return self.symbolic.n_interior

    def solve_workspace_bytes(self, n_rhs: int, rhs_dtype=None) -> int:
        """Logical bytes :meth:`solve` borrows for ``n_rhs`` dense columns
        of ``rhs_dtype`` (default: the factor dtype).

        The parallel runtime reserves this as admission headroom so that
        concurrently admitted panel solves cannot push the tracker past
        its limit through their nested workspace charges.  The sweeps are
        blocked over :data:`DEFAULT_RHS_PANEL` columns, so the borrowed
        work vector never exceeds ``n_full × min(n_rhs, panel)`` entries
        of the sweep dtype — complex for a complex right-hand side, even
        on real factors.
        """
        dtype = sweep_dtype(self.dtype, self.dtype if rhs_dtype is None
                            else rhs_dtype)
        width = min(int(n_rhs), DEFAULT_RHS_PANEL)
        return int(self.symbolic.n_full) * width * dtype.itemsize

    def take_schur(self) -> Tuple[np.ndarray, object]:
        """Transfer ownership of the dense Schur block (and its allocation)."""
        if self.schur is None:
            raise ConfigurationError("no Schur variables were requested")
        schur, alloc = self.schur, self._schur_alloc
        self.schur, self._schur_alloc = None, None
        return schur, alloc

    def free(self) -> None:
        """Release factors (and the Schur block if still owned)."""
        if self._freed:
            return
        self._freed = True
        for f in self._fronts:
            if f.alloc is not None:
                f.alloc.free()
        self._fronts = []
        self._plan = None  # its views would keep the factors resident
        if self._schur_alloc is not None:
            self._schur_alloc.free()
            self._schur_alloc = None
        self.schur = None

    # -- solves ---------------------------------------------------------------
    def _active_mask(self, support_pos: np.ndarray) -> np.ndarray:
        """Fronts owning one of the elimination positions ``support_pos``,
        plus their ancestors: the fronts a forward sweep must visit when
        the right-hand side is nonzero only there, and the ones a backward
        sweep must visit when the solution is read only there."""
        sym = self.symbolic
        active = np.zeros(len(sym.fronts), dtype=bool)
        active[np.searchsorted(sym.front_hi, support_pos, side="right")] = True
        for i, parent in enumerate(sym.parent.tolist()):
            if active[i] and parent >= 0:
                active[parent] = True
        return active

    def solve(
        self,
        b: Union[np.ndarray, sp.spmatrix],
        exploit_sparsity: Optional[bool] = None,
        rhs_panel: Optional[int] = None,
        wanted: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Solve ``A₁₁ x = b`` over the interior variables.

        Parameters
        ----------
        b:
            Right-hand side(s) of length ``n_interior`` (vector, matrix or
            scipy sparse matrix), indexed by interior variables in
            ascending full-matrix order.  Never modified.
        exploit_sparsity:
            Skip fronts whose subtree holds no RHS nonzero in the forward
            sweep (the MUMPS ICNTL(20) analog).  Defaults to on for sparse
            input, off for dense input.
        rhs_panel:
            Column-panel width of the sweeps (default
            :data:`DEFAULT_RHS_PANEL`).  Wider right-hand sides are
            processed panel by panel — the triangular solves and coupling
            products stay in cache-resident BLAS-3 shapes and the solve
            workspace is bounded by ``n_full × rhs_panel`` — with sparse
            right-hand sides keeping per-panel support exploitation.
        wanted:
            Interior indices (any order) whose solution rows the caller
            reads.  The result is then ``x[wanted]`` — bit for bit the
            rows the full solve returns — and the backward sweep skips
            every front that neither owns a wanted variable nor is an
            ancestor of one that does (the sparse-solution counterpart of
            the sparse right-hand side).

        Returns
        -------
        Dense solution array with the same leading shape as ``b`` (its
        rows those of ``wanted`` when given), in the factors' precision
        (complex when either side is).
        """
        if self._freed:
            raise RuntimeError("factorization has been freed")
        if self._plan is None:
            raise ConfigurationError(
                "a factorization that keeps no factors cannot solve")
        sym = self.symbolic
        panel = (DEFAULT_RHS_PANEL if rhs_panel is None
                 else max(1, int(rhs_panel)))
        sparse_input = sp.issparse(b)
        if exploit_sparsity is None:
            exploit_sparsity = sparse_input
        if sparse_input:
            b = b.tocsc()
            if not b.has_canonical_format:
                b = b.copy()
                b.sum_duplicates()
        else:
            b = np.asarray(b)
        was_1d = b.ndim == 1
        if was_1d:
            b = b[:, None]
        if b.shape[0] != self.n_interior:
            raise ConfigurationError(
                f"rhs has {b.shape[0]} rows, expected {self.n_interior}"
            )
        n_rhs = b.shape[1]
        dtype = sweep_dtype(self.dtype, b.dtype)
        if wanted is None:
            read_pos, needed = sym.interior_pos, None
        else:
            read_pos = sym.interior_pos[np.asarray(wanted, dtype=np.intp)]
            needed = self._active_mask(read_pos)
        x: Optional[np.ndarray] = None
        for lo in range(0, max(n_rhs, 1), panel):
            bp = b if n_rhs <= panel else b[:, lo:lo + panel]
            width = bp.shape[1]
            with self.tracker.borrow(
                sym.n_full * width * dtype.itemsize,
                category="solve_workspace", label="solve work vector",
            ):
                # the work vector lives in elimination order: interior
                # variables by front, Schur variables (scratch) last
                z = np.zeros((sym.n_full, width), dtype=dtype)
                support = None
                if sparse_input:
                    support = sym.interior_pos[bp.indices]
                    cols = np.repeat(np.arange(width), np.diff(bp.indptr))
                    z[support, cols] = bp.data
                else:
                    z[sym.interior_pos] = bp
                    if exploit_sparsity:
                        support = sym.interior_pos[np.any(bp != 0, axis=1)]
                active = (self._active_mask(support) if exploit_sparsity
                          else None)
                self._sweep(z.view(self.dtype), active, needed)
                xp = z[read_pos]
            if width == n_rhs:
                x = xp
            else:
                if x is None:
                    x = np.empty((xp.shape[0], n_rhs), dtype=dtype)
                x[:, lo:lo + width] = xp
        assert x is not None
        return x[:, 0] if was_1d else x

    def _sweep_plan(self):
        """What :meth:`_sweep` hands BLAS, decided once per factorization.

        The ``trmm`` / ``gemm`` / ``trmv`` / ``gemv`` handles of the factor
        dtype, and per front with pivots, in postorder: ``(node_index, lo,
        hi, bnd_pos or None, perm, d, forward multiply, forward update,
        backward update, backward multiply)``, the steps as
        :func:`_multiply_step` / :func:`_update_step` make them from the
        stored factors.  Every operand is a view of a stored factor, so
        the plan adds no bytes; a factor BLAS would copy is refused here.
        """
        dt = self.dtype
        lu = self.mode == "lu"
        steps = []
        for f, fr in zip(self.symbolic.fronts, self._fronts, strict=True):
            if not f.n_own:
                continue
            bnd = f.bnd_pos if len(f.bnd_pos) else None
            steps.append((
                f.node_index, f.lo, f.hi, bnd, fr.perm, fr.d,
                _multiply_step(fr.l11, dt, lower=True, unit=True),
                None if bnd is None else _update_step(fr.l21, dt),
                None if bnd is None else (
                    _update_step(fr.u12, dt) if lu
                    else _update_step(fr.l21, dt, trans=True)),
                _multiply_step(fr.l11, dt, lower=False) if lu
                else _multiply_step(fr.l11, dt, lower=True, trans=True,
                                    unit=True),
            ))
        blas = get_blas_funcs(("trmm", "gemm", "trmv", "gemv"), dtype=dt)
        return blas, tuple(steps)

    def _sweep(self, z: np.ndarray, active, needed) -> None:
        """Forward then backward substitution, in place on ``z``.

        ``z`` is the C-ordered work vector in elimination order, viewed in
        the factor dtype (real factors sweep the real ``(n, 2m)`` view of
        a complex right-hand side).  A front's pivot rows are the slice
        ``z[lo:hi]``, updated in place by BLAS through its transposed
        view (one column: the contiguous vector itself); only its boundary
        rows are gathered.  The calls are those :class:`RowBlockKernel`
        makes, from the :meth:`_sweep_plan`.  ``active`` / ``needed`` are
        the :meth:`_active_mask` of the right-hand side's support and of
        the solution rows that will be read (``None``: every front): the
        forward loop skips fronts outside the first, the backward loop
        fronts outside the second, whose rows of ``z`` are left stale.
        """
        assert z.flags.c_contiguous and z.dtype == self.dtype
        if not z.shape[1]:
            return
        (trmm, gemm, trmv, gemv), steps = self._plan
        one = z.shape[1] == 1
        if one:
            w = z[:, 0]

            def multiply(step, x):
                a, lower, trans, unit = step
                trmv(a, x, 0, 1, lower, trans, unit, 1)

            def update(c, step, b):
                a, trans, v, vtrans = step
                if v is not None:
                    b = gemv(1.0, v, b, trans=vtrans)
                gemv(-1.0, a, b, 1.0, c, 0, 1, 0, 1, trans, 1)
        else:
            w = z

            def multiply(step, x):
                a, lower, trans, unit = step
                trmm(1.0, a, x.T, 1, lower, not trans, unit, 1)

            def update(c, step, b):
                a, trans, v, vtrans = step
                bt = b.T
                if v is not None:
                    bt = gemm(1.0, bt, v, trans_b=not vtrans)
                gemm(-1.0, bt, a, 1.0, c.T, 0, not trans, 1)

        for node, lo, hi, bnd, perm, _, fwd, down, _, _ in steps:
            if active is not None and not active[node]:
                continue
            zo = w[lo:hi]
            if perm is not None:
                zo[:] = zo[perm]
            multiply(fwd, zo)
            if down is not None:
                zb = w[bnd]
                update(zb, down, zo)
                w[bnd] = zb
        # the forward sweep scribbles on the Schur positions (they are
        # reduced-RHS scratch); a pure interior solve treats x_schur = 0
        w[self.symbolic.n_interior:] = 0
        for node, lo, hi, bnd, _, d, _, _, up, bwd in reversed(steps):
            if needed is not None and not needed[node]:
                continue
            zo = w[lo:hi]
            if d is not None:
                zo /= d if one else d[:, None]
            if up is not None:
                update(zo, up, w[bnd])
            multiply(bwd, zo)
