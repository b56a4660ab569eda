"""Additional property-based tests for the sparse solver components."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fembem.fem import assemble_fem_matrix
from repro.fembem.mesh import StructuredGrid
from repro.sparse import BLRConfig, SparseSolver
from repro.sparse.ordering import (
    geometric_nested_dissection,
    graph_nested_dissection,
    symmetrized_pattern,
)


@settings(max_examples=12, deadline=None)
@given(
    nx=st.integers(2, 8), ny=st.integers(2, 6), nz=st.integers(1, 5),
    leaf=st.integers(4, 60),
)
def test_property_geometric_nd_separators(nx, ny, nz, leaf):
    """The geometric ND tree satisfies the separator property on any grid."""
    grid = StructuredGrid(nx, ny, nz)
    a = assemble_fem_matrix(grid, mode="real_spd", stencil="7pt")
    tree = geometric_nested_dissection(a, grid.points(), leaf_size=leaf)
    tree.validate_separators(symmetrized_pattern(a))
    np.testing.assert_array_equal(np.sort(tree.perm), np.arange(a.shape[0]))


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(20, 200), extra=st.integers(0, 50),
    leaf=st.integers(4, 40), seed=st.integers(0, 100),
)
def test_property_graph_nd_on_random_sparse_graphs(n, extra, leaf, seed):
    """Graph ND handles arbitrary (even disconnected) sparse graphs."""
    rng = np.random.default_rng(seed)
    # a random spanning structure + extra random edges, possibly two
    # disconnected components
    rows, cols = [], []
    half = n // 2 if n >= 40 and seed % 3 == 0 else n
    for block in ((0, half), (half, n)):
        lo, hi = block
        for v in range(lo + 1, hi):
            u = int(rng.integers(lo, v))
            rows += [u, v]
            cols += [v, u]
    for _ in range(extra):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            rows += [int(u), int(v)]
            cols += [int(v), int(u)]
    data = np.ones(len(rows))
    a = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    a = a + sp.identity(n) * 10
    tree = graph_nested_dissection(a, leaf_size=leaf)
    tree.validate_separators(symmetrized_pattern(a))
    np.testing.assert_array_equal(np.sort(tree.perm), np.arange(n))


@settings(max_examples=8, deadline=None)
@given(
    blr_tol=st.floats(1e-10, 1e-1), min_panel=st.integers(4, 64),
    seed=st.integers(0, 50),
)
def test_property_blr_solve_error_bounded(blr_tol, min_panel, seed):
    """BLR at any tolerance keeps the solve residual O(tol)."""
    grid = StructuredGrid(7, 6, 5)
    a = assemble_fem_matrix(grid, mode="real_spd")
    solver = SparseSolver(
        blr=BLRConfig(tol=blr_tol, min_panel=min_panel,
                      max_rank_fraction=1.0)
    )
    f = solver.factorize(solver.analyse(a, grid.points()), a,
                         symmetric_values=True)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(a.shape[0])
    x = f.solve(b)
    res = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
    assert res < 50 * blr_tol + 1e-10
    f.free()
