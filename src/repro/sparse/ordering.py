"""Fill-reducing orderings and nested-dissection partition trees.

The multifrontal factorization consumes a
:class:`~repro.sparse.partition.PartitionTree` from one of the nested
dissection builders:

* :func:`geometric_nested_dissection` — recursive longest-axis bisection
  of the *point coordinates* (the natural choice for our FEM grids; this
  is the default the coupling algorithms use);
* :func:`graph_nested_dissection` — BFS level-set separators on the
  matrix graph when no coordinates are available.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from repro.sparse.partition import PartitionNode, PartitionTree
from repro.utils.errors import ConfigurationError

DEFAULT_LEAF = 96


def gather_rows(m: sp.csr_matrix, rows: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """The column indices of the CSR rows ``rows``, concatenated in the
    order given, and for each entry the position in ``rows`` of the row
    it came from (nondecreasing).  One vectorised gather in place of a
    Python loop over the rows."""
    rows = np.asarray(rows, dtype=np.intp)
    start = m.indptr[rows]
    count = m.indptr[rows + 1] - start
    owner = np.repeat(np.arange(len(rows)), count)
    # entry j of the output is entry j − (entries before its row) of it
    skip = np.repeat(start - (np.cumsum(count) - count), count)
    return m.indices[np.arange(len(owner)) + skip], owner


def symmetrized_pattern(a: sp.spmatrix) -> sp.csr_matrix:
    """Boolean CSR adjacency ``pattern(A + Aᵀ)`` without the diagonal."""
    a = a.tocsr()
    if a.shape[0] != a.shape[1]:
        raise ConfigurationError("pattern matrix must be square")
    pattern = (a != 0).astype(np.int8)
    pattern = ((pattern + pattern.T) != 0).astype(np.int8)
    pattern.setdiag(0)
    pattern.eliminate_zeros()
    pattern = pattern.tocsr()
    pattern.sort_indices()
    return pattern


def geometric_nested_dissection(
    a: sp.spmatrix,
    coords: np.ndarray,
    leaf_size: int = DEFAULT_LEAF,
) -> PartitionTree:
    """Nested dissection by geometric bisection with one-layer separators.

    The variable set is split at the median of the longest coordinate axis;
    the separator is the layer of the upper half adjacent (in the matrix
    graph) to the lower half, which disconnects the two halves by
    construction.

    Parameters
    ----------
    a:
        Sparse matrix whose (symmetrized) pattern defines adjacency.
    coords:
        Point coordinates per variable, shape ``(n, d)``.
    leaf_size:
        Subdomains at most this large are not split further.
    """
    pattern = symmetrized_pattern(a)
    coords = np.asarray(coords, dtype=np.float64)
    n = pattern.shape[0]
    if len(coords) != n:
        raise ConfigurationError(
            f"coords has {len(coords)} rows, matrix has {n}"
        )
    # scratch membership mask of the current lower half, cleared after use
    in_lower = np.zeros(n, dtype=bool)

    def build(idx: np.ndarray) -> PartitionNode:
        if len(idx) <= leaf_size:
            return PartitionNode(idx)
        pts = coords[idx]
        extent = pts.max(axis=0) - pts.min(axis=0)
        axis = int(np.argmax(extent))
        order = np.argsort(pts[:, axis], kind="stable")
        half = len(idx) // 2
        lower = idx[order[:half]]
        upper = idx[order[half:]]
        if len(lower) == 0 or len(upper) == 0:
            return PartitionNode(idx)
        # separator: vertices of the upper half adjacent to the lower half
        nbrs, which = gather_rows(pattern, upper)
        in_lower[lower] = True
        sep_mask = np.zeros(len(upper), dtype=bool)
        sep_mask[which[in_lower[nbrs]]] = True
        in_lower[lower] = False
        sep = upper[sep_mask]
        rest = upper[~sep_mask]
        if len(sep) == 0:
            # disconnected halves: no separator needed, pure recursion
            return PartitionNode(
                np.empty(0, dtype=np.intp), [build(lower), build(upper)]
            )
        if len(sep) == len(upper) or len(rest) == 0:
            # degenerate split (everything is interface): stop here
            return PartitionNode(idx)
        children = [build(lower)]
        if len(rest):
            children.append(build(rest))
        return PartitionNode(sep, children)

    root = build(np.arange(n, dtype=np.intp))
    return PartitionTree(root, n)


def _pseudo_peripheral(pattern: sp.csr_matrix, idx: np.ndarray) -> int:
    """A vertex of (locally) maximal eccentricity inside ``idx``'s subgraph."""
    sub = pattern[idx][:, idx]
    start = 0
    for _ in range(3):
        order = breadth_first_order(sub, start, directed=False,
                                    return_predecessors=False)
        start = int(order[-1])
    return start


def graph_nested_dissection(
    a: sp.spmatrix,
    leaf_size: int = DEFAULT_LEAF,
) -> PartitionTree:
    """Nested dissection with BFS level-set separators (coordinate free).

    BFS levels from a pseudo-peripheral vertex split the subgraph at the
    median level; the separator is the first level of the upper half
    (adjacent to the lower half by construction of BFS levels).
    """
    pattern = symmetrized_pattern(a)
    n = pattern.shape[0]

    def build(idx: np.ndarray) -> PartitionNode:
        if len(idx) <= leaf_size:
            return PartitionNode(idx)
        sub = pattern[idx][:, idx].tocsr()
        start = _pseudo_peripheral(pattern, idx)
        # BFS levels on the subgraph
        level = np.full(len(idx), -1, dtype=np.intp)
        level[start] = 0
        frontier = [start]
        current = 0
        sub_indptr, sub_indices = sub.indptr, sub.indices
        while frontier:
            nxt = []
            for v in frontier:
                for w in sub_indices[sub_indptr[v] : sub_indptr[v + 1]]:
                    if level[w] < 0:
                        level[w] = current + 1
                        nxt.append(w)
            frontier = nxt
            current += 1
        unreachable = level < 0
        if unreachable.any():
            # disconnected: peel off one component, no separator needed
            comp_a = idx[~unreachable]
            comp_b = idx[unreachable]
            return PartitionNode(
                np.empty(0, dtype=np.intp), [build(comp_a), build(comp_b)]
            )
        counts = np.bincount(level)
        cum = np.cumsum(counts)
        cut_level = int(np.searchsorted(cum, len(idx) // 2))
        lower_mask = level < cut_level
        sep_mask = level == cut_level
        upper_mask = level > cut_level
        if not lower_mask.any() or not upper_mask.any():
            return PartitionNode(idx)
        children = [build(idx[lower_mask])]
        if upper_mask.any():
            children.append(build(idx[upper_mask]))
        return PartitionNode(idx[sep_mask], children)

    root = build(np.arange(n, dtype=np.intp))
    return PartitionTree(root, n)

