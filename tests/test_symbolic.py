"""Tests for the multifrontal symbolic analysis."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fembem.fem import assemble_fem_matrix
from repro.fembem.mesh import StructuredGrid
from repro.sparse.ordering import geometric_nested_dissection
from repro.sparse.symbolic import symbolic_analysis
from repro.utils.errors import ConfigurationError


@pytest.fixture(scope="module")
def problem():
    grid = StructuredGrid(7, 6, 5)
    a = assemble_fem_matrix(grid, mode="real_spd")
    tree = geometric_nested_dissection(a, grid.points(), leaf_size=25)
    return grid, a, tree


class TestInteriorOnly:
    def test_root_boundary_empty(self, problem):
        _, a, tree = problem
        sym = symbolic_analysis(a, tree)
        assert sym.fronts[-1].n_bnd == 0

    def test_fronts_cover_all_variables(self, problem):
        _, a, tree = problem
        sym = symbolic_analysis(a, tree)
        owned = np.concatenate([f.own for f in sym.fronts])
        np.testing.assert_array_equal(np.sort(owned), np.arange(a.shape[0]))

    def test_boundaries_sorted_by_elimination_position(self, problem):
        _, a, tree = problem
        sym = symbolic_analysis(a, tree)
        for f in sym.fronts:
            pos = sym.elim_pos[f.bnd]
            assert (np.diff(pos) > 0).all()

    def test_boundary_contains_matrix_neighbours(self, problem):
        """Every later-eliminated neighbour of an owned var is in the front."""
        _, a, tree = problem
        sym = symbolic_analysis(a, tree)
        acsr = a.tocsr()
        for f in sym.fronts[:10]:
            front_vars = set(np.concatenate([f.own, f.bnd]).tolist())
            for v in f.own:
                nbrs = acsr.indices[acsr.indptr[v] : acsr.indptr[v + 1]]
                for w in nbrs:
                    if sym.elim_pos[w] >= sym.elim_pos[v]:
                        assert int(w) in front_vars

    def test_estimates_positive(self, problem):
        _, a, tree = problem
        sym = symbolic_analysis(a, tree)
        assert sym.factor_nnz_estimate() > a.nnz / 2
        assert sym.peak_front_size() >= 1


class TestWithSchur:
    def test_schur_vars_in_root_boundary(self, problem):
        grid, a, tree = problem
        n = a.shape[0]
        k = 30
        coupling = sp.random(k, n, density=0.02, format="csr", random_state=2)
        w = sp.bmat([[a, coupling.T], [coupling, None]], format="csr")
        sym = symbolic_analysis(w, tree, schur_vars=np.arange(n, n + k))
        root_bnd = sym.fronts[-1].bnd
        assert (root_bnd >= n).all()
        assert len(root_bnd) > 0
        assert sym.n_interior == n

    def test_schur_positions_after_interior(self, problem):
        _, a, tree = problem
        n = a.shape[0]
        k = 10
        coupling = sp.random(k, n, density=0.05, format="csr", random_state=3)
        w = sp.bmat([[a, coupling.T], [coupling, None]], format="csr")
        schur = np.arange(n, n + k)
        sym = symbolic_analysis(w, tree, schur_vars=schur)
        assert (sym.elim_pos[schur] >= n).all()

    def test_schur_vars_interleaved_ids(self, problem):
        """Schur variables need not be the trailing ids."""
        _, a, tree = problem
        n = a.shape[0]
        k = 8
        # put the schur variables at the FRONT of the extended matrix
        coupling = sp.random(k, n, density=0.05, format="csr", random_state=4)
        w = sp.bmat([[None, coupling], [coupling.T, a]], format="csr")
        w = w.tolil()
        for i in range(k):
            w[i, i] = 0.0
        w = w.tocsr()
        sym = symbolic_analysis(w, tree, schur_vars=np.arange(k))
        assert sym.n_interior == n
        assert (sym.elim_pos[np.arange(k)] >= n).all()

    def test_duplicate_schur_vars_rejected(self, problem):
        _, a, tree = problem
        n = a.shape[0]
        w = sp.bmat(
            [[a, sp.csr_matrix((n, 2))], [sp.csr_matrix((2, n)), sp.eye(2)]],
            format="csr",
        )
        with pytest.raises(ConfigurationError):
            symbolic_analysis(w, tree, schur_vars=np.array([n, n]))

    def test_tree_size_mismatch_rejected(self, problem):
        _, a, tree = problem
        bigger = sp.block_diag([a, sp.eye(5)]).tocsr()
        with pytest.raises(ConfigurationError):
            symbolic_analysis(bigger, tree)


class TestSweepIndexMaps:
    """The elimination-order maps the solve sweeps read."""

    def _bordered(self, problem, front=False):
        _, a, tree = problem
        n, k = a.shape[0], 9
        c = sp.random(k, n, density=0.05, format="csr", random_state=6)
        if front:   # Schur ids first: interior ids are not 0..n-1
            w = sp.bmat([[sp.eye(k), c], [c.T, a]], format="csr")
            return a, tree, w, np.arange(k), np.arange(k, n + k)
        w = sp.bmat([[a, c.T], [c, None]], format="csr")
        return a, tree, w, np.arange(n, n + k), np.arange(n)

    def _check(self, sym):
        hi = 0
        for f in sym.fronts:
            # pivot rows are one contiguous slice of the work vector
            np.testing.assert_array_equal(sym.elim_pos[f.own],
                                          np.arange(f.lo, f.hi))
            assert f.lo == hi and f.hi == hi + f.n_own
            hi = f.hi
            np.testing.assert_array_equal(f.bnd_pos, sym.elim_pos[f.bnd])
            assert (f.bnd_pos >= f.hi).all()
        assert hi == sym.n_interior
        np.testing.assert_array_equal(sym.front_hi,
                                      [f.hi for f in sym.fronts])
        interior = np.setdiff1d(np.arange(sym.n_full), sym.schur_vars)
        np.testing.assert_array_equal(sym.interior_pos,
                                      sym.elim_pos[interior])
        for node in sym.tree.postorder:
            want = node.parent.index if node.parent is not None else -1
            assert sym.parent[node.index] == want

    def test_interior_analysis(self, problem):
        _, a, tree = problem
        self._check(symbolic_analysis(a, tree))

    @pytest.mark.parametrize("front", [False, True])
    def test_border_graft_shares_and_matches(self, problem, front):
        from repro.sparse.symbolic import extend_symbolic_with_border

        a, tree, w, schur, interior_ids = self._bordered(problem, front)
        cached = symbolic_analysis(a, tree)
        grafted = extend_symbolic_with_border(cached, w, schur, interior_ids)
        scratch = symbolic_analysis(w, tree, schur_vars=schur)
        self._check(scratch)
        self._check(grafted)
        for g, s in zip(grafted.fronts, scratch.fronts, strict=True):
            assert (g.lo, g.hi) == (s.lo, s.hi)
            np.testing.assert_array_equal(g.bnd_pos, s.bnd_pos)
        # built once per pattern, shared by every refactorization
        assert grafted.interior_pos is cached.interior_pos
        assert grafted.parent is cached.parent
        assert grafted.front_hi is cached.front_hi
