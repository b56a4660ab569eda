"""Tests for fill-reducing orderings and partition trees."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fembem.fem import assemble_fem_matrix
from repro.fembem.mesh import StructuredGrid
from repro.sparse.ordering import (
    gather_rows,
    geometric_nested_dissection,
    graph_nested_dissection,
    symmetrized_pattern,
)
from repro.sparse.partition import PartitionNode, PartitionTree
from repro.utils.errors import ConfigurationError


@pytest.fixture(scope="module")
def grid_problem():
    grid = StructuredGrid(8, 7, 6)
    a = assemble_fem_matrix(grid, mode="real_spd")
    return grid, a


class TestGatherRows:
    """``gather_rows`` is the per-row concatenation, with owners."""

    @staticmethod
    def _loop(m, rows):
        parts = [m.indices[m.indptr[r]:m.indptr[r + 1]] for r in rows]
        owner = [np.full(len(p), i) for i, p in enumerate(parts)]
        return (np.concatenate(parts + [m.indices[:0]]),
                np.concatenate(owner + [np.empty(0, dtype=np.intp)]))

    @pytest.mark.parametrize("rows", [
        [],                       # empty selection
        [1, 3],                   # empty rows only
        [4, 0, 1, 5, 2, 0],       # unsorted, repeated, empty rows inside
        [5, 4, 3, 2, 1, 0],
    ])
    def test_matches_the_row_loop(self, rows):
        m = sp.csr_matrix(np.array([
            [0, 1, 0, 1, 1, 0],
            [0, 0, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 0],
            [1, 1, 1, 1, 1, 1],
            [0, 0, 1, 0, 0, 0],
        ]))
        cols, owner = gather_rows(m, np.array(rows, dtype=np.intp))
        want_cols, want_owner = self._loop(m, rows)
        np.testing.assert_array_equal(cols, want_cols)
        np.testing.assert_array_equal(owner, want_owner)
        assert cols.dtype == m.indices.dtype

    def test_pattern_rows(self, grid_problem):
        _, a = grid_problem
        p = symmetrized_pattern(a)
        rows = np.random.default_rng(0).permutation(a.shape[0])[:100]
        cols, owner = gather_rows(p, rows)
        want_cols, want_owner = self._loop(p, rows)
        np.testing.assert_array_equal(cols, want_cols)
        np.testing.assert_array_equal(owner, want_owner)


class TestSymmetrizedPattern:
    def test_symmetric_no_diagonal(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0, 0], [0, 3.0, 0], [4.0, 0, 5.0]]))
        p = symmetrized_pattern(a)
        assert (p - p.T).nnz == 0
        assert p.diagonal().sum() == 0
        # (0,1) from a, (1,0) from transpose; (0,2)/(2,0) likewise
        assert p[0, 1] and p[1, 0] and p[0, 2] and p[2, 0]

    def test_non_square_rejected(self):
        with pytest.raises(ConfigurationError):
            symmetrized_pattern(sp.csr_matrix((2, 3)))


class TestGeometricND:
    def test_perm_is_permutation(self, grid_problem):
        grid, a = grid_problem
        tree = geometric_nested_dissection(a, grid.points(), leaf_size=30)
        np.testing.assert_array_equal(np.sort(tree.perm),
                                      np.arange(a.shape[0]))

    def test_separator_property_holds(self, grid_problem):
        grid, a = grid_problem
        tree = geometric_nested_dissection(a, grid.points(), leaf_size=30)
        tree.validate_separators(symmetrized_pattern(a))  # raises on failure

    def test_postorder_children_before_parents(self, grid_problem):
        grid, a = grid_problem
        tree = geometric_nested_dissection(a, grid.points(), leaf_size=30)
        for node in tree.postorder:
            for child in node.children:
                assert child.index < node.index

    def test_leaf_size_bounds_leaves(self, grid_problem):
        grid, a = grid_problem
        tree = geometric_nested_dissection(a, grid.points(), leaf_size=25)
        for node in tree.postorder:
            if node.is_leaf:
                assert len(node.own) <= 25

    def test_coords_length_mismatch_rejected(self, grid_problem):
        _, a = grid_problem
        with pytest.raises(ConfigurationError):
            geometric_nested_dissection(a, np.zeros((3, 3)))

    def test_elim_pos_is_inverse_of_perm(self, grid_problem):
        grid, a = grid_problem
        tree = geometric_nested_dissection(a, grid.points(), leaf_size=30)
        np.testing.assert_array_equal(tree.elim_pos[tree.perm],
                                      np.arange(tree.n))


class TestGraphND:
    def test_perm_and_separators(self, grid_problem):
        _, a = grid_problem
        tree = graph_nested_dissection(a, leaf_size=30)
        np.testing.assert_array_equal(np.sort(tree.perm),
                                      np.arange(a.shape[0]))
        tree.validate_separators(symmetrized_pattern(a))

    def test_disconnected_graph(self):
        a = sp.block_diag([
            sp.eye(40) + sp.diags(np.ones(39), 1) + sp.diags(np.ones(39), -1),
            sp.eye(30) + sp.diags(np.ones(29), 1) + sp.diags(np.ones(29), -1),
        ]).tocsr()
        tree = graph_nested_dissection(a, leaf_size=8)
        np.testing.assert_array_equal(np.sort(tree.perm), np.arange(70))
        tree.validate_separators(symmetrized_pattern(a))


class TestAmalgamation:
    def test_amalgamated_tree_still_valid(self, grid_problem):
        grid, a = grid_problem
        tree = geometric_nested_dissection(a, grid.points(), leaf_size=20)
        merged = tree.amalgamated(min_own=16)
        np.testing.assert_array_equal(np.sort(merged.perm),
                                      np.arange(a.shape[0]))
        merged.validate_separators(symmetrized_pattern(a))

    def test_amalgamation_reduces_node_count(self, grid_problem):
        grid, a = grid_problem
        tree = geometric_nested_dissection(a, grid.points(), leaf_size=10)
        merged = tree.amalgamated(min_own=40)
        assert merged.n_nodes < tree.n_nodes


class TestPartitionTree:
    def test_overlapping_ownership_rejected(self):
        with pytest.raises(ConfigurationError):
            PartitionTree(
                PartitionNode(np.array([0, 1]),
                              [PartitionNode(np.array([1, 2]))]),
                n=3,
            )

    def test_incomplete_cover_rejected(self):
        with pytest.raises(ConfigurationError):
            PartitionTree(PartitionNode(np.array([0, 1])), n=3)

    def test_validate_catches_bad_separator(self):
        # a path graph split without a separator violates the property
        n = 6
        a = sp.diags([np.ones(n - 1), np.ones(n - 1)], [-1, 1]).tocsr()
        bad = PartitionTree(
            PartitionNode(
                np.empty(0, dtype=np.intp),
                [PartitionNode(np.arange(3)), PartitionNode(np.arange(3, 6))],
            ),
            n=n,
        )
        with pytest.raises(ConfigurationError):
            bad.validate_separators(symmetrized_pattern(a))

    def test_parent_array(self, grid_problem):
        grid, a = grid_problem
        tree = geometric_nested_dissection(a, grid.points(), leaf_size=30)
        assert tree.parent[-1] == -1
        for node in tree.postorder:
            for child in node.children:
                assert tree.parent[child.index] == node.index
        assert (tree.parent[:-1] > np.arange(tree.n_nodes - 1)).all()

    def test_a_solve_leaves_no_partition_tree_to_the_cycle_collector(
            self, pipe_small):
        """Nodes point down only: a finished run frees its partition trees
        by reference counting, none is left as cyclic garbage."""
        import gc

        from repro import SolverConfig, solve_coupled

        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            solve_coupled(pipe_small, "multi_solve",
                          SolverConfig(dense_backend="hmat"))
            gc.collect()
            left = [o for o in gc.garbage if isinstance(o, PartitionNode)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert left == []

    def test_node_of_variable(self, grid_problem):
        grid, a = grid_problem
        tree = geometric_nested_dissection(a, grid.points(), leaf_size=30)
        owner = tree.node_of_variable()
        for node in tree.postorder:
            assert (owner[node.own] == node.index).all()

