"""Symbolic analysis for the multifrontal factorization.

For every partition-tree node the symbolic phase computes the *front*
variables: the node's own (pivot) variables plus its *boundary* — the
variables eliminated later (ancestor separators, plus the Schur variables,
which are never eliminated) that the subtree touches:

.. math::

    \\mathrm{bnd}(X) = \\Big( \\mathrm{adj}(\\mathrm{own}(X))
        \\cup \\bigcup_{C \\in \\mathrm{children}(X)} \\mathrm{bnd}(C) \\Big)
        \\setminus \\mathrm{subtree}(X)

Because the permutation is a postorder concatenation, a subtree owns a
*contiguous* range of elimination positions, so the set subtraction is a
single vectorised comparison on positions.

Schur variables (the paper's Schur-complement feature, §II-C2) receive
elimination positions *after* every interior variable; they propagate to
the root front, whose final update block is exactly the dense Schur
complement MUMPS would return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro.sparse.ordering import gather_rows, symmetrized_pattern
from repro.sparse.partition import PartitionTree
from repro.utils.errors import ConfigurationError


@dataclass
class FrontSymbolic:
    """Symbolic data of one front (all ids are original variable indices)."""

    node_index: int
    own: np.ndarray       # pivot variables, in elimination order
    bnd: np.ndarray       # boundary variables, in elimination order
    lo: int               # own occupies elimination positions lo .. hi-1
    hi: int
    bnd_pos: np.ndarray   # elimination positions of bnd (ascending)
    child_indices: List[int] = field(default_factory=list)
    #: row/column of each boundary variable inside the *parent* front: the
    #: extend-add map of the numeric phase (None without boundary or parent)
    in_parent: Optional[np.ndarray] = None

    @property
    def n_own(self) -> int:
        return len(self.own)

    @property
    def n_bnd(self) -> int:
        return len(self.bnd)

    @property
    def front_size(self) -> int:
        return self.n_own + self.n_bnd


@dataclass
class SymbolicFactorization:
    """Result of :func:`symbolic_analysis`.

    Attributes
    ----------
    fronts:
        One :class:`FrontSymbolic` per tree node, in postorder.
    elim_pos:
        Extended elimination position of every variable of the full matrix
        (interior variables first, Schur variables last).
    schur_vars:
        The Schur variable ids (empty when no Schur was requested).
    interior_pos, parent, front_hi:
        The index maps of the solve sweeps, which run on a work vector in
        *elimination order* (a front's pivot rows are the slice
        ``lo:hi``, only ``bnd_pos`` is gathered): the elimination position
        of each interior variable in ascending id order, the postorder
        index of each front's parent (−1 at the root), and each front's
        ``hi``.  They depend on the interior analysis only, so an
        interior analysis shares them with every border grafted onto it.
    """

    tree: PartitionTree
    fronts: List[FrontSymbolic]
    elim_pos: np.ndarray
    schur_vars: np.ndarray
    n_full: int
    interior_pos: np.ndarray
    parent: np.ndarray
    front_hi: np.ndarray

    @property
    def n_interior(self) -> int:
        return self.n_full - len(self.schur_vars)

    def factor_nnz_estimate(self) -> int:
        """Total entries of all frontal factor panels (fill estimate)."""
        total = 0
        for f in self.fronts:
            total += f.n_own * f.n_own + 2 * f.n_own * f.n_bnd
        return total

    def peak_front_size(self) -> int:
        return max((f.front_size for f in self.fronts), default=0)


def _link_to_parents(fronts: List[FrontSymbolic], parent) -> None:
    """Fill ``in_parent``: a boundary variable is a pivot of the parent
    (``e − lo``) or sits in the parent's boundary, after its pivots."""
    for f, pi in zip(fronts, parent.tolist(), strict=True):
        if pi >= 0 and len(f.bnd_pos):
            par, e = fronts[pi], f.bnd_pos
            f.in_parent = np.where(
                e < par.hi, e - par.lo,
                par.n_own + np.searchsorted(par.bnd_pos, e))


def symbolic_analysis(
    a: sp.spmatrix,
    tree: PartitionTree,
    schur_vars: Optional[np.ndarray] = None,
) -> SymbolicFactorization:
    """Compute front structures for ``a`` factored along ``tree``.

    Parameters
    ----------
    a:
        Full square matrix (interior + Schur variables).  Only its
        symmetrized pattern matters here.
    tree:
        Partition tree over the *interior* variables only.
    schur_vars:
        Variable ids to keep uneliminated (dense Schur complement block).
    """
    n_full = a.shape[0]
    schur_vars = (
        np.asarray(schur_vars, dtype=np.intp)
        if schur_vars is not None
        else np.empty(0, dtype=np.intp)
    )
    n_schur = len(schur_vars)
    n_int = n_full - n_schur
    if tree.n != n_int:
        raise ConfigurationError(
            f"tree covers {tree.n} variables but the matrix has "
            f"{n_int} interior variables"
        )

    # extended elimination positions: interior by tree order, Schur last
    elim_pos = np.full(n_full, -1, dtype=np.intp)
    interior_mask = np.ones(n_full, dtype=bool)
    interior_mask[schur_vars] = False
    interior_ids = np.flatnonzero(interior_mask)
    # tree.perm indexes interior variables as 0..n_int-1 in the caller's
    # interior ordering; map through interior_ids to full-matrix ids
    full_perm = interior_ids[tree.perm]
    elim_pos[full_perm] = np.arange(n_int)
    elim_pos[schur_vars] = n_int + np.arange(n_schur)
    if np.any(elim_pos < 0):
        raise ConfigurationError("schur_vars must be unique and in range")

    pattern = symmetrized_pattern(a)
    # the variable at each elimination position, in the pattern's index
    # dtype (what the boundaries are made of)
    var_at = np.empty(n_full, dtype=pattern.indices.dtype)
    var_at[elim_pos] = np.arange(n_full)
    # a front owns positions lo..hi-1 of the postorder concatenation, so
    # the neighbours of every interior variable in elimination order are
    # one gather, and a front's are one slice of it (as positions)
    front_hi = np.cumsum([len(node.own) for node in tree.postorder],
                         dtype=np.intp)
    nbr, row = gather_rows(pattern, full_perm)
    nbr_pos = elim_pos[nbr]
    cut = np.searchsorted(row, np.concatenate(([0], front_hi))).tolist()

    fronts: List[FrontSymbolic] = []
    bnd_of: List[np.ndarray] = []  # boundary positions, ascending
    lo = 0
    for node, hi in zip(tree.postorder, front_hi.tolist()):
        # candidate boundary: neighbours of own + children boundaries
        parts = [bnd_of[c.index] for c in node.children]
        parts.append(nbr_pos[cut[node.index]:cut[node.index + 1]])
        cand = np.unique(np.concatenate(parts))
        bnd_pos = cand[np.searchsorted(cand, hi):]
        fronts.append(
            FrontSymbolic(
                node_index=node.index,
                own=full_perm[lo:hi],
                bnd=var_at[bnd_pos],
                lo=lo,
                hi=hi,
                bnd_pos=bnd_pos,
                child_indices=[c.index for c in node.children],
            )
        )
        bnd_of.append(bnd_pos)
        lo = hi

    root_bnd = bnd_of[-1] if bnd_of else np.empty(0, dtype=np.intp)
    if n_schur == 0 and len(root_bnd):
        raise ConfigurationError(
            "root front has a non-empty boundary without Schur variables; "
            "the partition tree does not satisfy the separator property"
        )
    if n_schur and np.any(root_bnd < n_int):
        raise ConfigurationError(
            "root boundary contains interior variables; invalid tree"
        )
    _link_to_parents(fronts, tree.parent)
    return SymbolicFactorization(
        tree=tree,
        fronts=fronts,
        elim_pos=elim_pos,
        schur_vars=schur_vars,
        n_full=n_full,
        interior_pos=elim_pos[interior_ids],
        parent=tree.parent,
        front_hi=front_hi,
    )


def extend_symbolic_with_border(
    interior: SymbolicFactorization,
    a_full: sp.spmatrix,
    schur_vars: np.ndarray,
    interior_ids: np.ndarray,
) -> SymbolicFactorization:
    """Graft a Schur border onto an interior analysis.

    Produces exactly what ``symbolic_analysis(a_full, interior.tree,
    schur_vars)`` would, without re-walking the interior adjacency:

    * interior-interior adjacency is a submatrix of ``a_full`` identical
      to the matrix the interior analysis saw, so the *interior part* of
      every front boundary is the interior one (mapped to full ids);
    * Schur variables take elimination positions ``>= n_int``, hence they
      always survive the ``elim_pos >= hi`` filter and sort *after* every
      interior boundary variable, in Schur-local order — so each front's
      boundary is the interior boundary followed by the subtree's
      Schur border, which propagates up the tree exactly like the
      boundaries themselves do.

    Because the front structures coincide, the numeric factorization
    performs the same arithmetic in the same order: results are
    bit-identical to the from-scratch analysis.

    Parameters
    ----------
    interior:
        Analysis of the interior matrix (no Schur variables).
    a_full:
        Full matrix including the Schur rows/columns (the paper's ``W``).
    schur_vars:
        Full-matrix ids kept uneliminated.
    interior_ids:
        Full-matrix ids of the interior variables, ascending; position
        ``l`` is the interior-local variable ``l`` of the interior analysis.
    """
    a_full = a_full.tocsr()
    schur_vars = np.asarray(schur_vars, dtype=np.intp)
    interior_ids = np.asarray(interior_ids, dtype=np.intp)
    n_full = a_full.shape[0]
    n_schur = len(schur_vars)
    n_int = interior.n_full
    if len(interior.schur_vars):
        raise ConfigurationError(
            "the interior analysis must have no Schur variables"
        )
    if n_int + n_schur != n_full or len(interior_ids) != n_int:
        raise ConfigurationError(
            f"matrix has {n_full} variables; the interior analysis "
            f"covers {n_int} and the border adds {n_schur}"
        )

    elim_pos = np.full(n_full, -1, dtype=np.intp)
    elim_pos[interior_ids] = interior.elim_pos
    elim_pos[schur_vars] = n_int + np.arange(n_schur)
    if np.any(elim_pos < 0):
        raise ConfigurationError("schur_vars must be unique and in range")

    # symmetrized pattern of the coupling blocks only: for each interior
    # variable (local id), the adjacent Schur variables (local ids)
    b_blk = a_full[interior_ids][:, schur_vars]
    c_blk = a_full[schur_vars][:, interior_ids]
    adj = ((b_blk != 0).astype(np.int8) + (c_blk != 0).astype(np.int8).T)
    adj = adj.tocsr()
    adj.sort_indices()
    # the interior fronts own the interior-only tree's permutation in
    # slices lo..hi-1: one gather, one slice per front
    nbr, row = gather_rows(adj, interior.tree.perm)
    cut = np.searchsorted(
        row, np.concatenate(([0], interior.front_hi))).tolist()

    # when the interior occupies ids 0..n_int-1 (the multi-factorization
    # W layout) the interior index arrays can be shared as-is
    identity = bool(
        n_int == 0
        or (interior_ids[0] == 0 and interior_ids[-1] == n_int - 1)
    )

    fronts: List[FrontSymbolic] = []
    border_of: List[np.ndarray] = []  # Schur-local border per front
    for i, f in enumerate(interior.fronts):
        parts = [border_of[ci] for ci in f.child_indices]
        parts.append(nbr[cut[i]:cut[i + 1]])
        border = np.unique(np.concatenate(parts))
        border_of.append(border)
        own_full = f.own if identity else interior_ids[f.own]
        bnd_full = f.bnd if identity else interior_ids[f.bnd]
        bnd_pos = f.bnd_pos
        if len(border):
            bnd_full = np.concatenate([bnd_full, schur_vars[border]])
            bnd_pos = np.concatenate([bnd_pos, n_int + border])
        fronts.append(
            FrontSymbolic(
                node_index=f.node_index,
                own=own_full,
                bnd=bnd_full,
                lo=f.lo,
                hi=f.hi,
                bnd_pos=bnd_pos,
                child_indices=list(f.child_indices),
            )
        )
    # the interior root boundary is empty (validated at interior analysis
    # time), so the root front's boundary is exactly its Schur border
    _link_to_parents(fronts, interior.parent)
    return SymbolicFactorization(
        tree=interior.tree,
        fronts=fronts,
        elim_pos=elim_pos,
        schur_vars=schur_vars,
        n_full=n_full,
        interior_pos=interior.interior_pos,
        parent=interior.parent,
        front_hi=interior.front_hi,
    )
