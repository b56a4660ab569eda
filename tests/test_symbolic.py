"""Tests for the multifrontal symbolic analysis."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fembem.fem import assemble_fem_matrix
from repro.fembem.mesh import StructuredGrid
from repro.sparse.ordering import (
    geometric_nested_dissection,
    symmetrized_pattern,
)
from repro.sparse.partition import PartitionNode, PartitionTree
from repro.sparse.symbolic import (
    extend_symbolic_with_border,
    symbolic_analysis,
)
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
        want = np.full(len(sym.fronts), -1)
        for node in sym.tree.postorder:
            want[[c.index for c in node.children]] = node.index
        np.testing.assert_array_equal(sym.parent, want)

    def test_interior_analysis(self, problem):
        _, a, tree = problem
        self._check(symbolic_analysis(a, tree))

    @pytest.mark.parametrize("front", [False, True])
    def test_border_graft_shares_and_matches(self, problem, front):
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


# -- the vectorised analysis against the per-variable loops it replaced -------

def _nd_loops(a, coords, leaf_size):
    """Geometric nested dissection testing separator membership one vertex
    at a time (the reference for :func:`geometric_nested_dissection`)."""
    pattern = symmetrized_pattern(a)
    coords = np.asarray(coords, dtype=np.float64)
    n = pattern.shape[0]
    indptr, indices = pattern.indptr, pattern.indices

    def build(idx):
        if len(idx) <= leaf_size:
            return PartitionNode(idx)
        pts = coords[idx]
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        order = np.argsort(pts[:, axis], kind="stable")
        half = len(idx) // 2
        lower, upper = idx[order[:half]], idx[order[half:]]
        if len(lower) == 0 or len(upper) == 0:
            return PartitionNode(idx)
        in_lower = np.zeros(n, dtype=bool)
        in_lower[lower] = True
        sep_mask = np.zeros(len(upper), dtype=bool)
        for pos, v in enumerate(upper):
            if in_lower[indices[indptr[v]:indptr[v + 1]]].any():
                sep_mask[pos] = True
        sep, rest = upper[sep_mask], upper[~sep_mask]
        if len(sep) == 0:
            return PartitionNode(np.empty(0, dtype=np.intp),
                                 [build(lower), build(upper)])
        if len(sep) == len(upper) or len(rest) == 0:
            return PartitionNode(idx)
        return PartitionNode(sep, [build(lower), build(rest)])

    return PartitionTree(build(np.arange(n, dtype=np.intp)), n)


def _in_parent(fronts, parent):
    """The extend-add maps, as ``(own, bnd, lo, hi, bnd_pos)`` tuples."""
    out = []
    for (own, bnd, lo, hi, bnd_pos), pi in zip(fronts, parent):
        at = None
        if pi >= 0 and len(bnd_pos):
            par = fronts[pi]
            at = np.where(bnd_pos < par[3], bnd_pos - par[2],
                          len(par[0]) + np.searchsorted(par[4], bnd_pos))
        out.append(at)
    return out


def _symbolic_loops(a, tree, schur_vars):
    """Front structures gathering each front's neighbours one variable at
    a time (the reference for :func:`symbolic_analysis`)."""
    n_full = a.shape[0]
    n_int = n_full - len(schur_vars)
    elim_pos = np.full(n_full, -1, dtype=np.intp)
    interior_mask = np.ones(n_full, dtype=bool)
    interior_mask[schur_vars] = False
    interior_ids = np.flatnonzero(interior_mask)
    elim_pos[interior_ids[tree.perm]] = np.arange(n_int)
    elim_pos[schur_vars] = n_int + np.arange(len(schur_vars))
    pattern = symmetrized_pattern(a)
    indptr, indices = pattern.indptr, pattern.indices
    fronts, bnd_of, hi = [], [], 0
    for node in tree.postorder:
        own = interior_ids[node.own]
        hi += len(own)
        parts = [bnd_of[c.index] for c in node.children]
        if len(own):
            parts.append(np.concatenate(
                [indices[indptr[v]:indptr[v + 1]] for v in own]))
        cand = (np.unique(np.concatenate(parts)) if parts
                else np.empty(0, dtype=np.intp))
        bnd = cand[elim_pos[cand] >= hi]
        bnd = bnd[np.argsort(elim_pos[bnd], kind="stable")]
        own = own[np.argsort(elim_pos[own], kind="stable")]
        fronts.append((own, bnd, hi - len(own), hi, elim_pos[bnd]))
        bnd_of.append(bnd)
    return fronts


def _extend_loops(interior, a_full, schur_vars, interior_ids):
    """The border graft gathering each front's Schur neighbours one
    variable at a time (the reference for
    :func:`extend_symbolic_with_border`)."""
    a_full = a_full.tocsr()
    n_int = interior.n_full
    b_blk = a_full[interior_ids][:, schur_vars]
    c_blk = a_full[schur_vars][:, interior_ids]
    adj = ((b_blk != 0).astype(np.int8)
           + (c_blk != 0).astype(np.int8).T).tocsr()
    adj.sort_indices()
    indptr, indices = adj.indptr, adj.indices
    fronts, border_of = [], []
    for f in interior.fronts:
        parts = [border_of[ci] for ci in f.child_indices]
        if len(f.own):
            parts.append(np.concatenate(
                [indices[indptr[v]:indptr[v + 1]] for v in f.own]))
        border = (np.unique(np.concatenate(parts)) if parts
                  else np.empty(0, dtype=np.intp))
        border_of.append(border)
        fronts.append((interior_ids[f.own],
                       np.concatenate([interior_ids[f.bnd],
                                       schur_vars[border]]),
                       f.lo, f.hi,
                       np.concatenate([f.bnd_pos, n_int + border])))
    return fronts


def _assert_same_tree(tree, ref):
    np.testing.assert_array_equal(tree.perm, ref.perm)
    assert tree.n_nodes == ref.n_nodes
    for node, want in zip(tree.postorder, ref.postorder, strict=True):
        np.testing.assert_array_equal(node.own, want.own)
        assert ([c.index for c in node.children]
                == [c.index for c in want.children])


def _assert_same_fronts(sym, ref_fronts):
    ref_in_parent = _in_parent(ref_fronts, sym.parent)
    for f, ref, at in zip(sym.fronts, ref_fronts, ref_in_parent, strict=True):
        own, bnd, lo, hi, bnd_pos = ref
        np.testing.assert_array_equal(f.own, own)
        np.testing.assert_array_equal(f.bnd, bnd)
        assert (f.lo, f.hi) == (lo, hi)
        np.testing.assert_array_equal(f.bnd_pos, bnd_pos)
        if at is None:
            assert f.in_parent is None
        else:
            np.testing.assert_array_equal(f.in_parent, at)


def _grid_matrix(dims, origin=0.0):
    grid = StructuredGrid(*dims)
    a = assemble_fem_matrix(grid, mode="real_spd").tocsr()
    return a, grid.points() + origin


def _analysis_case(name):
    """``(a_interior, coords, w, schur_vars)`` per pattern kind."""
    from repro.core.multi_factorization import _build_w_block
    from repro.fembem import generate_aircraft_case, generate_pipe_case

    if name in ("pipe", "aircraft"):
        p = (generate_pipe_case(2_000, seed=0) if name == "pipe" else
             generate_aircraft_case(1_800, bem_fraction=0.25, seed=0))
        a, coords = p.a_vv.tocsr(), p.coords_v
        a_sv = p.a_sv.tocsr()
    else:
        a, coords = _grid_matrix((9, 8, 7))
        if name == "disconnected":   # two grids far apart: empty separators
            b, cb = _grid_matrix((9, 8, 7), origin=100.0)
            a = sp.block_diag([a, b], format="csr")
            coords = np.vstack([coords, cb])
        else:                        # isolated variables: empty pattern rows
            lone = np.arange(0, a.shape[0], 7)
            keep = np.ones(a.shape[0])
            keep[lone] = 0
            a = (sp.diags(keep) @ a @ sp.diags(keep)
                 + sp.diags(1.0 - keep)).tocsr()
            a.eliminate_zeros()
        a_sv = sp.random(40, a.shape[0], density=0.01, format="csr",
                         random_state=3)
    k = a_sv.shape[0] // 2
    w, schur_vars = _build_w_block(a, a_sv, np.arange(k),
                                   np.arange(k, 2 * k), a.dtype)
    return a, coords, w.tocsr(), schur_vars


@pytest.mark.parametrize("name", ["pipe", "aircraft", "disconnected",
                                  "isolated"])
def test_analysis_matches_the_per_variable_loops(name):
    """Trees and fronts of the vectorised analysis are ``array_equal`` to
    what the per-variable loops build: the interior analysis, a ``W``
    block analysed from scratch, and the same ``W`` grafted onto the
    interior analysis."""
    from repro.sparse import SparseSolver

    a, coords, w, schur_vars = _analysis_case(name)
    for leaf_size in (96, 24):
        tree = geometric_nested_dissection(a, coords, leaf_size=leaf_size)
        _assert_same_tree(tree, _nd_loops(a, coords, leaf_size))
    if name == "disconnected":
        assert any(len(node.own) == 0 for node in tree.postorder)
    tree = SparseSolver(leaf_size=24).build_tree(a, coords)
    none = np.empty(0, dtype=np.intp)
    interior = symbolic_analysis(a, tree)
    _assert_same_fronts(interior, _symbolic_loops(a, tree, none))
    scratch = symbolic_analysis(w, tree, schur_vars=schur_vars)
    _assert_same_fronts(scratch, _symbolic_loops(w, tree, schur_vars))
    interior_ids = np.arange(a.shape[0])
    grafted = extend_symbolic_with_border(interior, w, schur_vars,
                                          interior_ids)
    _assert_same_fronts(grafted, _extend_loops(interior, w, schur_vars,
                                               interior_ids))
    _assert_same_fronts(grafted, _symbolic_loops(w, tree, schur_vars))
