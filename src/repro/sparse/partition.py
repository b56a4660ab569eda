"""Separator partition trees for the multifrontal method.

A :class:`PartitionTree` is the output of nested dissection: every node
*owns* a disjoint set of variables (a separator, or a leaf subdomain
interior), children are eliminated before their parent, and — the defining
separator property — a variable owned by a node may only be adjacent (in
the matrix graph) to variables owned by that node's subtree or by its
ancestors.  The multifrontal factorization processes one dense front per
node in postorder.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro.utils.errors import ConfigurationError


class PartitionNode:
    """A partition-tree node owning the variables in ``own``.

    Nodes point down only; the way up is :attr:`PartitionTree.parent`, so
    a tree holds no reference cycle and is freed by reference counting.
    """

    __slots__ = ("own", "children", "index")

    def __init__(self, own: np.ndarray, children: Optional[List["PartitionNode"]] = None):
        self.own = np.asarray(own, dtype=np.intp)
        self.children: List["PartitionNode"] = children or []
        self.index: int = -1  # postorder index, set by PartitionTree

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def subtree_size(self) -> int:
        return len(self.own) + sum(c.subtree_size() for c in self.children)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionNode(#{self.index}, own={len(self.own)}, "
            f"children={len(self.children)})"
        )


class PartitionTree:
    """A separator tree over variables ``0 .. n-1``.

    The constructor assigns postorder indices, the :attr:`parent` array
    and the global elimination permutation (postorder concatenation of
    each node's owned variables — interiors first, separators after their
    subtrees).
    """

    def __init__(self, root: PartitionNode, n: int):
        self.root = root
        self.n = n
        self._postorder: List[PartitionNode] = []
        self._assign(root)
        #: postorder index of each node's parent (−1 at the root)
        self.parent = np.full(len(self._postorder), -1, dtype=np.intp)
        for node in self._postorder:
            for child in node.children:
                self.parent[child.index] = node.index
        own_total = sum(len(node.own) for node in self._postorder)
        if own_total != n:
            raise ConfigurationError(
                f"partition tree owns {own_total} variables, expected {n}"
            )
        perm_parts = [node.own for node in self._postorder]
        self.perm = (
            np.concatenate(perm_parts) if perm_parts else np.empty(0, np.intp)
        )
        if len(np.unique(self.perm)) != n:
            raise ConfigurationError("partition tree variables are not disjoint")
        #: elimination position of each variable (inverse permutation)
        self.elim_pos = np.empty(n, dtype=np.intp)
        self.elim_pos[self.perm] = np.arange(n)

    def _assign(self, node: PartitionNode):
        for child in node.children:
            self._assign(child)
        node.index = len(self._postorder)
        self._postorder.append(node)

    @property
    def postorder(self) -> List[PartitionNode]:
        """Nodes in postorder (children always before parents)."""
        return self._postorder

    @property
    def n_nodes(self) -> int:
        return len(self._postorder)

    def node_of_variable(self) -> np.ndarray:
        """Array mapping variable -> owning node postorder index."""
        owner = np.empty(self.n, dtype=np.intp)
        for node in self._postorder:
            owner[node.own] = node.index
        return owner

    def validate_separators(self, pattern: sp.csr_matrix) -> None:
        """Check the separator property against a symmetric pattern.

        For every node, neighbours of its owned variables must lie in the
        node's subtree or among its ancestors.  Raises on violation; used
        by tests and available for debugging orderings.
        """
        owner = self.node_of_variable()
        # ancestors-or-self as sets of node indices
        parent = self.parent.tolist()
        anc: List[set] = []
        for i in range(self.n_nodes):
            s, j = {i}, parent[i]
            while j >= 0:
                s.add(j)
                j = parent[j]
            anc.append(s)
        # subtree membership via descendant intervals: postorder indices of
        # a subtree form a contiguous range ending at the node's own index
        first = np.empty(self.n_nodes, dtype=np.intp)
        for node in self._postorder:
            if node.is_leaf:
                first[node.index] = node.index
            else:
                first[node.index] = min(first[c.index] for c in node.children)
        indptr, indices = pattern.indptr, pattern.indices
        for node in self._postorder:
            lo = first[node.index]
            for v in node.own:
                for w in indices[indptr[v] : indptr[v + 1]]:
                    wnode = owner[w]
                    in_subtree = lo <= wnode <= node.index
                    if not in_subtree and wnode not in anc[node.index]:
                        raise ConfigurationError(
                            f"separator property violated: variable {v} "
                            f"(node {node.index}) adjacent to {w} "
                            f"(node {wnode})"
                        )

    def amalgamated(self, min_own: int = 32) -> "PartitionTree":
        """Merge small nodes into their parents (supernode amalgamation).

        A node owning fewer than ``min_own`` variables is absorbed by its
        parent: the parent inherits its variables and children.  Larger
        fronts trade a little fill for far fewer, BLAS-friendlier fronts —
        the standard multifrontal amalgamation knob.
        """

        def rebuild(node: PartitionNode) -> PartitionNode:
            children = [rebuild(c) for c in node.children]
            own_parts = [node.own]
            kept = []
            for child in children:
                if len(child.own) < min_own and child.is_leaf:
                    own_parts.append(child.own)
                else:
                    kept.append(child)
            # keep elimination order: absorbed children are eliminated
            # together with (just before) the parent's own variables
            merged = np.concatenate(own_parts[1:] + own_parts[:1]) \
                if len(own_parts) > 1 else node.own
            return PartitionNode(merged, kept)

        return PartitionTree(rebuild(self.root), self.n)
