"""Tests for fill-reducing orderings and partition trees."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fembem.fem import assemble_fem_matrix
from repro.fembem.mesh import StructuredGrid
from repro.sparse.ordering import (
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

    def test_node_of_variable(self, grid_problem):
        grid, a = grid_problem
        tree = geometric_nested_dissection(a, grid.points(), leaf_size=30)
        owner = tree.node_of_variable()
        for node in tree.postorder:
            assert (owner[node.own] == node.index).all()

