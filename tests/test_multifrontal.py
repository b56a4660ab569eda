"""Tests for the numeric multifrontal factorization, Schur API and solves."""

import gc
import pickle
import sys
import types
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.fembem.fem import assemble_fem_matrix
from repro.fembem.mesh import StructuredGrid
from repro.memory import MemoryTracker
from repro.sparse import BLRConfig, SparseSolver
from repro.sparse.multifrontal import MultifrontalFactorization
from repro.utils.errors import ConfigurationError, SingularMatrixError


def _factorize(solver, a, coords=None, **kwargs):
    """Analyse ``a`` and factorize it along that analysis."""
    return solver.factorize(solver.analyse(a, coords), a, **kwargs)


def _factorize_schur(solver, a, coords, w, schur_vars, **kwargs):
    """``factorize_schur`` of ``w`` along the analysis of its interior
    block ``a``."""
    return solver.factorize_schur(solver.analyse(a, coords), w, schur_vars,
                                  **kwargs)


@pytest.fixture(scope="module")
def spd_problem():
    grid = StructuredGrid(9, 7, 6)
    a = assemble_fem_matrix(grid, mode="real_spd")
    return grid, a.tocsr()


@pytest.fixture(scope="module")
def unsym_problem():
    grid = StructuredGrid(8, 6, 5)
    a = assemble_fem_matrix(grid, mode="complex_nonsym")
    return grid, a.tocsr()


class TestFactorizeSolve:
    def test_ldlt_solve_matches_scipy(self, spd_problem, rng):
        grid, a = spd_problem
        f = _factorize(SparseSolver(), a, grid.points(), symmetric_values=True)
        b = rng.standard_normal(a.shape[0])
        x = f.solve(b)
        np.testing.assert_allclose(x, spla.spsolve(a.tocsc(), b), rtol=1e-8)
        f.free()

    def test_lu_solve_complex_nonsymmetric(self, unsym_problem, rng):
        grid, a = unsym_problem
        f = _factorize(
            SparseSolver(), a, grid.points(), symmetric_values=False)
        b = rng.standard_normal(a.shape[0]) + 1j * rng.standard_normal(a.shape[0])
        x = f.solve(b)
        res = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert res < 1e-10
        f.free()

    def test_multiple_rhs(self, spd_problem, rng):
        grid, a = spd_problem
        f = _factorize(SparseSolver(), a, grid.points(), symmetric_values=True)
        b = rng.standard_normal((a.shape[0], 7))
        x = f.solve(b)
        assert np.abs(a @ x - b).max() < 1e-9
        f.free()

    def test_sparse_rhs_exploitation_matches_dense_path(self, spd_problem):
        grid, a = spd_problem
        n = a.shape[0]
        f = _factorize(SparseSolver(), a, grid.points(), symmetric_values=True)
        rhs = sp.random(n, 3, density=0.003, format="csr", random_state=5)
        x_sparse = f.solve(rhs, exploit_sparsity=True)
        x_dense = f.solve(np.asarray(rhs.todense()), exploit_sparsity=False)
        np.testing.assert_allclose(x_sparse, x_dense, atol=1e-12)
        f.free()

    def test_zero_rhs_gives_zero(self, spd_problem):
        grid, a = spd_problem
        f = _factorize(SparseSolver(), a, grid.points(), symmetric_values=True)
        x = f.solve(np.zeros(a.shape[0]))
        np.testing.assert_array_equal(x, 0.0)
        f.free()

    def test_graph_ordering_backend(self, spd_problem, rng):
        _, a = spd_problem
        f = _factorize(
            SparseSolver(ordering="graph"), a, symmetric_values=True)
        b = rng.standard_normal(a.shape[0])
        np.testing.assert_allclose(f.solve(b), spla.spsolve(a.tocsc(), b),
                                   rtol=1e-8)
        f.free()

    def test_geometric_without_coords_rejected(self, spd_problem):
        _, a = spd_problem
        with pytest.raises(ConfigurationError):
            _factorize(SparseSolver(ordering="geometric"), a)

    def test_rhs_size_mismatch_rejected(self, spd_problem):
        grid, a = spd_problem
        f = _factorize(SparseSolver(), a, grid.points(), symmetric_values=True)
        with pytest.raises(ConfigurationError):
            f.solve(np.zeros(a.shape[0] + 1))
        f.free()

    def test_solve_after_free_raises(self, spd_problem):
        grid, a = spd_problem
        f = _factorize(SparseSolver(), a, grid.points(), symmetric_values=True)
        f.free()
        with pytest.raises(RuntimeError):
            f.solve(np.zeros(a.shape[0]))

    def test_singular_matrix_raises(self):
        grid = StructuredGrid(4, 4, 4)
        n = grid.n_points
        a = sp.csr_matrix((n, n))
        a.setdiag(0.0)
        with pytest.raises(SingularMatrixError):
            _factorize(SparseSolver(), a + sp.csr_matrix(
                (np.zeros(1), ([0], [1])), shape=(n, n)),
                grid.points(), symmetric_values=True)


class TestSchurAPI:
    def _schur_setup(self, grid, a, k, seed, unsym=False):
        n = a.shape[0]
        c = sp.random(k, n, density=0.02, format="csr", random_state=seed,
                      dtype=np.float64)
        b = (sp.random(k, n, density=0.02, format="csr",
                       random_state=seed + 1).T
             if unsym else c.T)
        w = sp.bmat([[a, b], [c, None]], format="csr")
        return w, b, c

    def test_symmetric_schur_matches_direct_computation(self, spd_problem):
        grid, a = spd_problem
        n, k = a.shape[0], 25
        w, b, c = self._schur_setup(grid, a, k, seed=7)
        f = _factorize_schur(
            SparseSolver(), a, grid.points(), w, np.arange(n, n + k),
            symmetric_values=True)
        ref = -(c @ spla.spsolve(a.tocsc(), b.toarray()))
        np.testing.assert_allclose(f.schur, ref, atol=1e-10)
        f.free()

    def test_unsymmetric_schur(self, spd_problem):
        grid, a = spd_problem
        n, k = a.shape[0], 20
        w, b, c = self._schur_setup(grid, a, k, seed=11, unsym=True)
        f = _factorize_schur(
            SparseSolver(), a, grid.points(), w, np.arange(n, n + k),
            symmetric_values=False)
        ref = -(c @ spla.spsolve(a.tocsc(), b.toarray()))
        np.testing.assert_allclose(f.schur, ref, atol=1e-10)
        f.free()

    def test_schur_includes_a22_entries(self, spd_problem):
        grid, a = spd_problem
        n, k = a.shape[0], 12
        w, b, c = self._schur_setup(grid, a, k, seed=13)
        w = w.tolil()
        for i in range(k):
            w[n + i, n + i] = 10.0 + i
        w = w.tocsr()
        f = _factorize_schur(
            SparseSolver(), a, grid.points(), w, np.arange(n, n + k),
            symmetric_values=True)
        ref = np.diag(10.0 + np.arange(k)) - (
            c @ spla.spsolve(a.tocsc(), b.toarray())
        )
        np.testing.assert_allclose(f.schur, ref, atol=1e-10)
        f.free()

    def test_schur_is_dense_ndarray(self, spd_problem):
        """Faithful to the paper's API constraint: S comes back dense."""
        grid, a = spd_problem
        n, k = a.shape[0], 10
        w, _, _ = self._schur_setup(grid, a, k, seed=17)
        f = _factorize_schur(
            SparseSolver(), a, grid.points(), w, np.arange(n, n + k),
            symmetric_values=True)
        assert isinstance(f.schur, np.ndarray)
        assert f.schur.shape == (k, k)
        f.free()

    def test_interior_solve_with_schur_present(self, spd_problem, rng):
        grid, a = spd_problem
        n, k = a.shape[0], 15
        w, _, _ = self._schur_setup(grid, a, k, seed=19)
        f = _factorize_schur(
            SparseSolver(), a, grid.points(), w, np.arange(n, n + k),
            symmetric_values=True)
        b = rng.standard_normal(n)
        x = f.solve(b)
        np.testing.assert_allclose(a @ x, b, atol=1e-9)
        f.free()

    def test_take_schur_transfers_ownership(self, spd_problem):
        grid, a = spd_problem
        n, k = a.shape[0], 8
        w, _, _ = self._schur_setup(grid, a, k, seed=23)
        t = MemoryTracker()
        f = _factorize_schur(
            SparseSolver(tracker=t), a, grid.points(), w, np.arange(n, n + k),
            symmetric_values=True)
        s, alloc = f.take_schur()
        f.free()
        assert t.in_use == alloc.nbytes  # only the transferred Schur remains
        alloc.free()
        t.assert_all_freed()

    def test_take_schur_without_schur_rejected(self, spd_problem):
        grid, a = spd_problem
        f = _factorize(SparseSolver(), a, grid.points(), symmetric_values=True)
        with pytest.raises(ConfigurationError):
            f.take_schur()
        f.free()


class TestBLR:
    def test_blr_preserves_solve_accuracy(self, spd_problem, rng):
        grid, a = spd_problem
        f = _factorize(
            SparseSolver(blr=BLRConfig(tol=1e-10, min_panel=16)), a,
            grid.points(), symmetric_values=True)
        b = rng.standard_normal(a.shape[0])
        res = np.linalg.norm(a @ f.solve(b) - b) / np.linalg.norm(b)
        assert res < 1e-7
        f.free()

    def test_loose_blr_reduces_factor_bytes(self, spd_problem):
        grid, a = spd_problem
        dense_f = _factorize(
            SparseSolver(blr=None), a, grid.points(), symmetric_values=True)
        blr_f = _factorize(SparseSolver(
            blr=BLRConfig(tol=1e-1, min_panel=8, max_rank_fraction=0.9)
        ), a, grid.points(), symmetric_values=True)
        assert blr_f.factor_bytes < dense_f.factor_bytes
        dense_f.free()
        blr_f.free()

    def test_blr_error_scales_with_tolerance(self, spd_problem, rng):
        grid, a = spd_problem
        b = rng.standard_normal(a.shape[0])
        errs = []
        for tol in (1e-2, 1e-8):
            f = _factorize(SparseSolver(
                blr=BLRConfig(tol=tol, min_panel=8, max_rank_fraction=1.0)
            ), a, grid.points(), symmetric_values=True)
            errs.append(
                np.linalg.norm(a @ f.solve(b) - b) / np.linalg.norm(b)
            )
            f.free()
        assert errs[1] < errs[0]


class TestMemoryAccounting:
    def test_no_leaks_after_free(self, spd_problem, rng):
        grid, a = spd_problem
        t = MemoryTracker()
        f = _factorize(
            SparseSolver(tracker=t), a, grid.points(), symmetric_values=True)
        f.solve(rng.standard_normal(a.shape[0]))
        assert t.in_use > 0
        f.free()
        t.assert_all_freed()

    def test_peak_includes_front_workspace(self, spd_problem):
        grid, a = spd_problem
        t = MemoryTracker()
        f = _factorize(
            SparseSolver(tracker=t), a, grid.points(), symmetric_values=True)
        assert t.peak > f.factor_bytes  # transient fronts exceeded factors
        # the reusable arena replaces per-front workspace allocations:
        # one charge, sized for the largest front, released with the call
        assert t.category_peak("front_arena") > 0
        assert t.category_peak("update_stack") > 0
        assert t.categories.get("front_arena", 0) == 0
        f.free()

    def test_unsymmetric_mode_doubles_factor_storage(self, spd_problem):
        """The paper's duplicated-storage effect: LU stores two panels."""
        grid, a = spd_problem
        f_ldlt = _factorize(
            SparseSolver(), a, grid.points(), symmetric_values=True)
        f_lu = _factorize(
            SparseSolver(), a, grid.points(), symmetric_values=False)
        assert f_lu.factor_bytes > 1.6 * f_ldlt.factor_bytes
        f_ldlt.free()
        f_lu.free()

    def test_memory_limit_aborts_factorization(self, spd_problem):
        from repro.utils.errors import MemoryLimitExceeded
        grid, a = spd_problem
        t = MemoryTracker(limit_bytes=50_000)
        with pytest.raises(MemoryLimitExceeded):
            _factorize(
                SparseSolver(tracker=t), a, grid.points(),
                symmetric_values=True)


class TestSymmetryProbe:
    def test_auto_detects_symmetric(self, spd_problem, rng):
        grid, a = spd_problem
        f = _factorize(SparseSolver(), a, grid.points())
        assert f.mode == "ldlt"
        f.free()

    def test_auto_detects_unsymmetric(self, unsym_problem):
        grid, a = unsym_problem
        f = _factorize(SparseSolver(), a, grid.points())
        assert f.mode == "lu"
        f.free()


# -- the solve sweeps: one routine, every combination ------------------------

def _sweep_matrix(kind, dims=(8, 6, 5)):
    """A small interior matrix of each (factorization, arithmetic) kind."""
    grid = StructuredGrid(*dims)
    a = assemble_fem_matrix(grid, mode="real_spd").tocsr()
    n = a.shape[0]
    shift = sp.diags(np.linspace(0.2, 0.7, n))
    if kind == "ldlt-real":
        return grid, a, True
    if kind == "ldlt-complex":      # complex *symmetric*, not Hermitian
        return grid, (a + 1j * shift).tocsr(), True
    if kind == "lu-real":
        return grid, (a + 0.3 * sp.triu(a, 1)).tocsr(), False
    return grid, assemble_fem_matrix(grid, mode="complex_nonsym").tocsr(), False


def _exact_rk_panels(f):
    """Swap every dense coupling panel for an exact (full-rank) RkMatrix,
    laid out the way ``compress_panel`` stores one."""
    from repro.hmatrix.rk import RkMatrix

    n_rk = 0
    for fr in f._fronts:
        for name in ("l21", "u12"):
            panel = getattr(fr, name)
            if isinstance(panel, np.ndarray) and min(panel.shape) > 0:
                rk = RkMatrix.from_dense(panel, 1e-15)
                rk.u, rk.v = map(np.ascontiguousarray, (rk.u, rk.v))
                setattr(fr, name, rk)
                n_rk += 1
    assert n_rk > 0
    f._plan = f._sweep_plan()  # the sweep reads the panels from its plan
    return f


_KINDS = ["ldlt-real", "ldlt-complex", "lu-real", "lu-complex"]


@pytest.fixture(scope="module", params=[
    (kind, panels) for kind in _KINDS for panels in ("dense", "rk")
], ids=lambda p: f"{p[0]}-{p[1]}")
def swept(request):
    kind, panels = request.param
    grid, a, symmetric = _sweep_matrix(kind)
    f = _factorize(
        SparseSolver(leaf_size=24, amalgamate=8), a, grid.points(),
        symmetric_values=symmetric)
    assert len(f.symbolic.fronts) > 8
    if panels == "rk":
        _exact_rk_panels(f)
    yield a, f, spla.splu(a.tocsc())
    f.free()


def _rel_err(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


_SHAPE_RHS = [
    (shape, rhs) for rhs in ("dense", "sparse-exploit", "sparse-full")
    for shape in ("1d", "col", 3, 300)
    if not (shape == "1d" and rhs != "dense")  # sparse matrices are 2-D
]


class TestSweepEquivalence:
    """Every way into the one sweep routine agrees with ``spsolve``."""

    # the "-solve" suffix keeps the ids these cases had beside the
    # solve_transpose ones that left with that method
    @pytest.mark.parametrize("shape,rhs", _SHAPE_RHS, ids=[
        f"{shape}-{rhs}-solve" for shape, rhs in _SHAPE_RHS])
    def test_matches_spsolve(self, swept, shape, rhs):
        a, f, lu = swept
        n = a.shape[0]
        rng = np.random.default_rng(3)
        cols = 1 if shape in ("1d", "col") else shape  # 300 > rhs_panel
        dense = rng.standard_normal((n, cols))
        if np.iscomplexobj(a.data):
            dense = dense + 1j * rng.standard_normal((n, cols))
        if rhs != "dense":
            dense[rng.random((n, cols)) < 0.97] = 0.0
            dense[0, :] = 1.0     # no all-zero column
        ref = lu.solve(dense)
        b = dense[:, 0] if shape == "1d" else dense
        if rhs != "dense":
            b = sp.csc_matrix(dense)
        kw = {} if rhs == "dense" else {
            "exploit_sparsity": rhs == "sparse-exploit"}
        x = f.solve(b, **kw)
        assert x.shape == (ref[:, 0] if shape == "1d" else ref).shape
        assert _rel_err(x.reshape(ref.shape), ref) <= 1e-10

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_zero_column_rhs(self, swept, dtype):
        a, f, _ = swept
        n = a.shape[0]
        out = np.result_type(f.dtype, dtype)
        for b in (np.zeros((n, 0), dtype), sp.csc_matrix((n, 0), dtype=dtype)):
            x = f.solve(b)
            assert x.shape == (n, 0) and x.dtype == out

    def test_real_factors_complex_rhs(self, swept, rng):
        a, f, lu = swept
        if np.iscomplexobj(a.data):
            pytest.skip("real factors only")
        n = a.shape[0]
        for cols in (1, 5):
            b = (rng.standard_normal((n, cols))
                 + 1j * rng.standard_normal((n, cols)))
            x = f.solve(b)
            assert x.dtype == np.complex128
            ref = lu.solve(b.real) + 1j * lu.solve(b.imag)
            assert _rel_err(x, ref) <= 1e-10

    def test_float32_rhs(self, swept, rng):
        a, f, lu = swept
        b = rng.standard_normal((a.shape[0], 2)).astype(np.float32)
        x = f.solve(b)
        assert x.dtype == f.dtype     # the factors' precision, not float32
        assert _rel_err(x, lu.solve(b.astype(a.dtype))) <= 1e-10

    def test_rhs_panel_width_is_invisible(self, swept, rng):
        a, f, _ = swept
        b = rng.standard_normal((a.shape[0], 20))
        np.testing.assert_allclose(f.solve(b, rhs_panel=7), f.solve(b),
                                   rtol=0, atol=1e-12)
        bs = sp.random(a.shape[0], 20, density=0.02, format="csc",
                       random_state=4)
        np.testing.assert_allclose(f.solve(bs, rhs_panel=7), f.solve(bs),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["ldlt-real", "lu-complex"])
    def test_schur_rows_do_not_leak_into_x(self, kind, rng):
        """The forward sweep scribbles on the Schur rows of the work
        vector; the interior solution must not see any of it."""
        grid, a, symmetric = _sweep_matrix(kind)
        n, k = a.shape[0], 14
        c = sp.random(k, n, density=0.05, format="csr", random_state=2,
                      dtype=np.float64)
        w = sp.bmat([[a, c.T], [c, None]], format="csr")
        f = _factorize_schur(
            SparseSolver(leaf_size=24, amalgamate=8), a, grid.points(), w,
            np.arange(n, n + k), symmetric_values=symmetric)
        b = rng.standard_normal((n, 3)).astype(a.dtype)
        ref = spla.splu(a.tocsc()).solve(b)
        assert _rel_err(f.solve(b), ref) <= 1e-10
        f.free()


@pytest.fixture(scope="module", params=_KINDS + ["lu-pivoting"])
def factored(request):
    """``(a, f)`` per factorization kind; ``lu-pivoting`` shrinks the
    diagonal so LAPACK interchanges rows inside the pivot blocks."""
    kind = request.param
    pivoting = kind == "lu-pivoting"
    grid, a, symmetric = _sweep_matrix("lu-real" if pivoting else kind)
    if pivoting:
        a = (a - 0.97 * sp.diags(a.diagonal())).tocsr()
    f = _factorize(
        SparseSolver(leaf_size=24, amalgamate=8), a, grid.points(),
        symmetric_values=symmetric)
    assert any(fr.perm is not None for fr in f._fronts) == pivoting
    yield a, f
    f.free()


class TestWantedRows:
    """``solve(b, wanted=w)`` is ``solve(b)[w]`` bit for bit: the backward
    sweep skips fronts whose rows nobody reads and changes no other."""

    @staticmethod
    def _wanted_sets(f, n):
        leaf = f.symbolic.fronts[0]
        assert not leaf.child_indices and leaf.n_own >= 3
        return {
            "empty": np.empty(0, dtype=np.intp),
            "one-leaf": leaf.own[:3],
            "everything": np.arange(n),
            "unsorted": np.random.default_rng(5).permutation(n)[: n // 3],
        }

    @pytest.mark.parametrize("cols", [1, 64, 300])   # 300 > rhs_panel
    @pytest.mark.parametrize("rhs", ["dense", "sparse"])
    def test_is_the_rows_of_the_full_solve(self, factored, rhs, cols):
        a, f = factored
        n = a.shape[0]
        rng = np.random.default_rng(8)
        b = rng.standard_normal((n, cols))
        if np.iscomplexobj(a.data):
            b = b + 1j * rng.standard_normal((n, cols))
        if rhs == "sparse":
            b[rng.random((n, cols)) < 0.97] = 0.0
            b = sp.csc_matrix(b)
        full = f.solve(b)
        resid = a @ full - (b.toarray() if rhs == "sparse" else b)
        assert np.abs(resid).max() <= 1e-8 * max(1.0, np.abs(full).max())
        for name, w in self._wanted_sets(f, n).items():
            x = f.solve(b, wanted=w)
            assert x.shape == (len(w), cols) and x.dtype == full.dtype, name
            assert np.array_equal(x, full[w]), name

    def test_vector_and_complex_rhs_on_real_factors(self, factored):
        a, f = factored
        n = a.shape[0]
        rng = np.random.default_rng(9)
        for b in (rng.standard_normal(n),
                  rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            full = f.solve(b)
            for name, w in self._wanted_sets(f, n).items():
                x = f.solve(b, wanted=w)
                assert x.shape == (len(w),), name
                assert np.array_equal(x, full[w]), name

    def test_backward_sweep_visits_the_ancestor_closure_only(self, factored):
        """One leaf's rows need that leaf and its ancestors; the stale
        rows of every skipped front stay out of the answer."""
        _, f = factored
        sym = f.symbolic
        leaf = sym.fronts[0]
        needed = f._active_mask(sym.interior_pos[leaf.own[:3]])
        chain = [0]
        while sym.parent[chain[-1]] >= 0:
            chain.append(int(sym.parent[chain[-1]]))
        assert np.flatnonzero(needed).tolist() == sorted(chain)
        assert len(chain) < len(sym.fronts) / 2

    def test_wanted_with_schur_variables_present(self, rng):
        """``wanted`` indexes the interior unknowns, as ``b`` does."""
        grid, a, symmetric = _sweep_matrix("ldlt-real")
        n, k = a.shape[0], 14
        c = sp.random(k, n, density=0.05, format="csr", random_state=2,
                      dtype=np.float64)
        w = sp.bmat([[a, c.T], [c, None]], format="csr")
        f = _factorize_schur(
            SparseSolver(leaf_size=24, amalgamate=8), a, grid.points(), w,
            np.arange(n, n + k), symmetric_values=symmetric)
        b = rng.standard_normal((n, 3))
        rows = rng.permutation(n)[:40]
        assert np.array_equal(f.solve(b, wanted=rows), f.solve(b)[rows])
        f.free()


def test_solve_backward_error_is_bounded_by_n_eps(factored):
    """The sweeps multiply by stored inverses (``trmm``) instead of solving
    (``trsm``); the solve stays backward stable: the normwise backward
    error ``‖A x − b‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)`` of each column is below
    ``n·eps`` (c = 1) — LDLᵀ and LU, real and complex, and LU whose pivot
    blocks interchange rows."""
    a, f = factored
    n = a.shape[0]
    rng = np.random.default_rng(10)
    b = rng.standard_normal((n, 8))
    if np.iscomplexobj(a.data):
        b = b + 1j * rng.standard_normal((n, 8))
    x = f.solve(b)
    norm_a = abs(a).sum(axis=1).max()
    eta = (np.abs(a @ x - b).max(axis=0)
           / (norm_a * np.abs(x).max(axis=0) + np.abs(b).max(axis=0)))
    assert eta.max() <= n * np.finfo(np.float64).eps


class TestNoHiddenCopies:
    """The sweep works in place on its own buffer, and only there."""

    def test_rhs_is_never_modified(self, swept, rng):
        a, f, _ = swept
        n = a.shape[0]
        base = rng.standard_normal((2 * n, 6)).astype(a.dtype)
        frozen = base[:n, :3].copy()
        frozen.setflags(write=False)
        inputs = {
            "c-ordered": np.ascontiguousarray(base[:n, :3]),
            "f-ordered": np.asfortranarray(base[:n, :3]),
            "strided": base[::2, ::2],
            "read-only": frozen,
            "vector": base[:n, 0].copy(),
        }
        for name, b in inputs.items():
            before = b.copy()
            f.solve(b)
            assert np.array_equal(b, before), name
        bs = sp.random(n, 4, density=0.05, format="csc", random_state=1)
        before = bs.copy()
        f.solve(bs)
        assert (bs != before).nnz == 0

    def test_kernel_refuses_a_block_blas_would_copy(self):
        from repro.dense import RowBlockKernel

        kern = RowBlockKernel(np.float64)
        l = np.tril(np.ones((6, 6))) + 5 * np.eye(6)
        x = np.ones((6, 2))
        kern.solve(l, x, lower=True)                 # contiguous: fine
        np.testing.assert_allclose(l @ x, 1.0)
        big = np.tril(np.ones((12, 12))) + 5 * np.eye(12)
        with pytest.raises(AssertionError, match="BLAS would copy"):
            kern.solve(big[:6, :6], x, lower=True)   # strided tile
        with pytest.raises(AssertionError, match="BLAS would copy"):
            kern.solve(l.astype(np.float32), x, lower=True)  # wrong dtype
        with pytest.raises(AssertionError, match="BLAS would copy"):
            kern.update(np.ones((6, 4))[:, :2], l[:, :3].copy(),
                        np.ones((3, 2)))             # strided row block
        with pytest.raises(AssertionError, match="BLAS would copy"):
            kern.multiply(big[:6, :6], x, lower=True)  # strided tile
        with pytest.raises(AssertionError, match="BLAS would copy"):
            kern.multiply(l, np.ones((6, 4))[:, :2], lower=True)

    def test_tracker_balanced_after_wrong_sized_rhs(self, spd_problem):
        grid, a = spd_problem
        t = MemoryTracker()
        f = _factorize(
            SparseSolver(tracker=t), a, grid.points(), symmetric_values=True)
        held = t.in_use
        for bad in (np.zeros(a.shape[0] + 1), np.zeros((3, 2)),
                    sp.csc_matrix((a.shape[0] - 1, 2))):
            with pytest.raises(ConfigurationError):
                f.solve(bad)
        assert t.in_use == held
        assert t.categories.get("solve_workspace", 0) == 0
        f.free()
        t.assert_all_freed()

    def test_sparse_rhs_is_charged_like_a_dense_one(self, spd_problem):
        """A sparse panel is scattered straight into the borrowed work
        vector: the workspace peak is that vector, nothing beside it."""
        grid, a = spd_problem
        n = a.shape[0]
        t = MemoryTracker()
        f = _factorize(
            SparseSolver(tracker=t), a, grid.points(), symmetric_values=True)
        f.solve(sp.random(n, 12, density=0.01, format="csr", random_state=0))
        assert t.category_peak("solve_workspace") == f.solve_workspace_bytes(12)
        f.free()


# -- the numeric phase: one plan, one loop, every combination -----------------

_TOL = 1e-3       # inside the Gram-valid regime of compress_panel
_BLR = {
    "dense": None,
    "blr": BLRConfig(tol=_TOL, min_panel=8, max_rank_fraction=1.0),
}


def _bordered(kind, border):
    """``w = [[a, b], [c, d]]`` and its parts, on a grid large enough for
    a few panels to pass the rank test at ``_TOL``."""
    from repro.core.multi_factorization import _build_w_block

    grid, a, symmetric = _sweep_matrix(kind, dims=(14, 10, 8))
    n = a.shape[0]
    a_sv = sp.random(32, n, density=0.06, format="csr", random_state=8,
                     dtype=np.float64).astype(a.dtype)
    if border == "w-block":
        # multi-factorization's W: square when symmetric, else the
        # thinner coupling block padded with empty Schur variables
        rows = np.arange(12)
        cols = rows if symmetric else np.arange(12, 32)
        w, schur_vars = _build_w_block(a, a_sv, rows, cols, a.dtype)
    else:
        k = 16
        c = a_sv[:k].tolil()
        c[k // 2] = 0          # an uncoupled Schur variable: the root
        c = c.tocsr()          # boundary is not the whole Schur block
        c.eliminate_zeros()
        b = c.T if symmetric else a_sv[k:2 * k].T.tolil()
        if not symmetric:
            b[:, k // 2] = 0
            b = b.tocsr()
            b.eliminate_zeros()
        d = sp.diags(np.linspace(1.0, 2.0, k).astype(a.dtype))
        w = sp.bmat([[a, b], [c, d]], format="csr")
        schur_vars = np.arange(n, n + k)
    w = w.tocsr()
    return (grid, symmetric, w, schur_vars, a, w[:n, n:], w[n:, :n],
            w[n:, n:].toarray())


class TestNumericPhase:
    """Entry scatter, extend-add and in-place contribution blocks agree
    with ``splu`` through every mode, arithmetic, border and panel form."""

    @pytest.mark.parametrize("panels", sorted(_BLR))
    @pytest.mark.parametrize("border", ["none", "schur", "w-block"])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_schur_and_solve_match_splu(self, kind, border, panels, rng):
        blr = _BLR[panels]
        grid, symmetric, w, schur_vars, a, b, c, d = _bordered(
            kind, "schur" if border == "none" else border)
        lu = spla.splu(a.tocsc())
        # BLR compresses storage only: the Schur block is still exact
        schur_tol = 1e-10
        solve_tol = 1e-10 if blr is None else _TOL
        solver = SparseSolver(
            leaf_size=24, amalgamate=8, blr=blr, tracker=MemoryTracker())
        if border == "none":
            f = _factorize(
                solver, a, grid.points(), symmetric_values=symmetric)
            assert f.schur is None
        else:
            f = _factorize_schur(
                solver, a, grid.points(), w, schur_vars,
                symmetric_values=symmetric)
            ref = d - c @ lu.solve(b.toarray())
            assert f.schur.shape == ref.shape and f.schur.dtype == a.dtype
            assert _rel_err(f.schur, ref) <= schur_tol
        stats = f.statistics()
        assert (stats["blr_compressed_panels"] <= stats["blr_tested_panels"]
                <= stats["blr_total_panels"])
        assert (stats["blr_compressed_panels"] > 0) == (blr is not None)
        rhs = rng.standard_normal((a.shape[0], 3)).astype(a.dtype)
        assert _rel_err(f.solve(rhs), lu.solve(rhs)) <= solve_tol
        f.free()
        solver.tracker.assert_all_freed()

    @pytest.mark.parametrize("kind", ["ldlt-real", "lu-complex"])
    def test_non_canonical_input_is_its_canonical_form(self, kind, rng):
        """Duplicate entries are summed and explicit zeros — wherever they
        sit, the analysed pattern does not hold them — are ignored."""
        grid, symmetric, w, schur_vars, a, *_ = _bordered(kind, "schur")
        w.sum_duplicates()
        halves = sp.csr_matrix(
            (np.repeat(w.data / 2, 2), np.repeat(w.indices, 2),
             2 * w.indptr), shape=w.shape)
        assert not halves.has_canonical_format and halves.nnz == 2 * w.nnz
        coo = w.tocoo()
        n_zero = 40
        zeros = sp.csr_matrix(
            (np.r_[coo.data, np.zeros(n_zero, dtype=w.dtype)],
             (np.r_[coo.row, rng.integers(0, w.shape[0], n_zero)],
              np.r_[coo.col, rng.integers(0, w.shape[0], n_zero)])),
            shape=w.shape)
        assert zeros.nnz > w.nnz
        rhs = rng.standard_normal(a.shape[0])
        f = _factorize_schur(
            SparseSolver(leaf_size=24, amalgamate=8), a, grid.points(), w,
            schur_vars, symmetric_values=symmetric)
        schur, x = f.schur.copy(), f.solve(rhs)
        for mat in (halves, zeros):
            # straight into the numeric phase, as on a reused analysis
            g = MultifrontalFactorization(mat, f.symbolic, symmetric)
            assert np.array_equal(g.schur, schur)
            assert np.array_equal(g.solve(rhs), x)
            g.free()
        assert halves.nnz == 2 * w.nnz          # summed on a copy
        f.free()

    def test_disconnected_matrix(self, rng):
        """A subtree with an empty boundary passes no contribution block
        up (its parent used to look one up and die on a ``KeyError``)."""
        _, a, _ = _sweep_matrix("ldlt-real")
        blocks = sp.block_diag([a, 2 * a, 3 * a], format="csr")
        f = _factorize(SparseSolver(ordering="graph", leaf_size=24,
                         amalgamate=8), blocks, symmetric_values=True)
        assert any(fr.n_bnd == 0 for fr in f.symbolic.fronts[:-1])
        b = rng.standard_normal(blocks.shape[0])
        assert _rel_err(f.solve(b), spla.spsolve(blocks.tocsc(), b)) <= 1e-10
        f.free()

    def test_entry_outside_the_analysed_pattern_is_refused(self):
        grid, a, _ = _sweep_matrix("lu-real")
        f = _factorize(
            SparseSolver(leaf_size=24, amalgamate=8), a, grid.points(),
            symmetric_values=False)
        first, last = f.symbolic.fronts[0].own[0], f.symbolic.fronts[1].own[0]
        assert a[first, last] == 0              # two sibling leaves
        stray = a.tolil()
        stray[first, last] = 1.0
        tracker = MemoryTracker()
        with pytest.raises(ConfigurationError, match="analysed pattern"):
            MultifrontalFactorization(stray.tocsr(), f.symbolic, False,
                                      tracker=tracker)
        tracker.assert_all_freed()
        f.free()

    @pytest.mark.parametrize("kind", _KINDS)
    def test_singular_pivot_block_releases_everything(self, kind, rng):
        """A failed factorization is never handed out: its factor, update
        and Schur charges are released, it frees its own front arena,
        and the tracker reads 0 — for the Schur-only call too."""
        grid, symmetric, w, schur_vars, a, *_ = _bordered(kind, "schur")
        tracker = MemoryTracker()
        solver = SparseSolver(leaf_size=24, amalgamate=8, tracker=tracker)
        analysis = solver.analyse(a, grid.points())
        # a variable of a late front: earlier fronts have factors and
        # contribution blocks in flight when its pivot block fails
        var = analysis.symbolic.fronts[-2].own[0]
        keep = sp.diags((np.arange(w.shape[0]) != var).astype(w.dtype))
        singular = (keep @ w @ keep).tocsr()
        singular.eliminate_zeros()
        for call in (solver.factorize_schur, solver.schur_complement):
            with pytest.raises(SingularMatrixError):
                call(analysis, singular, schur_vars,
                     symmetric_values=symmetric)
            assert tracker.in_use == 0
            assert tracker.category_peak("front_arena") > 0
        f = solver.factorize_schur(analysis, w, schur_vars,
                                   symmetric_values=symmetric)
        rhs = rng.standard_normal(a.shape[0]).astype(a.dtype)
        assert _rel_err(f.solve(rhs), spla.splu(a.tocsc()).solve(rhs)) <= 1e-10
        f.free()
        tracker.assert_all_freed()


class TestSolveWorkspaceReservation:
    @pytest.mark.parametrize("rhs_dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("cols", [1, 12, 300])
    def test_borrowed_never_exceeds_reserved(self, spd_problem, rng,
                                             rhs_dtype, cols):
        """Real factors sweep a complex right-hand side in complex: the
        runtime's admission headroom has to be sized by the sweep dtype."""
        grid, a = spd_problem
        t = MemoryTracker()
        f = _factorize(
            SparseSolver(tracker=t), a, grid.points(), symmetric_values=True)
        b = rng.standard_normal((a.shape[0], cols)).astype(rhs_dtype)
        f.solve(b)
        borrowed = t.category_peak("solve_workspace")
        assert 0 < borrowed <= f.solve_workspace_bytes(cols, b.dtype)
        if rhs_dtype is np.complex128:
            assert borrowed > f.solve_workspace_bytes(cols)  # the old sizing
        f.free()


# -- the sweep plan: RowBlockKernel's calls, decided once ---------------------

def _kernel_sweep(self, z, active, needed):
    """The sweep as ``RowBlockKernel`` runs it, front by front: the
    reference the plan-driven ``MultifrontalFactorization._sweep`` must
    match bit for bit."""
    from repro.dense import RowBlockKernel
    from repro.hmatrix.rk import RkMatrix

    sym = self.symbolic
    kern = RowBlockKernel(self.dtype)
    lu = self.mode == "lu"

    def panel_update(c, panel, b, trans=False):
        if isinstance(panel, RkMatrix):
            kern.update_rk(c, panel.u, panel.v, b, trans)
        else:
            kern.update(c, panel, b, trans)

    todo = [(f, fr) for f, fr in zip(sym.fronts, self._fronts, strict=True)
            if f.n_own]
    for f, fr in todo:
        if active is not None and not active[f.node_index]:
            continue
        zo = z[f.lo:f.hi]
        if fr.perm is not None:
            zo[:] = zo[fr.perm]
        kern.multiply(fr.l11, zo, lower=True, unit=True)
        if len(f.bnd_pos):
            zb = z[f.bnd_pos]
            panel_update(zb, fr.l21, zo)
            z[f.bnd_pos] = zb
    z[sym.n_interior:] = 0
    for f, fr in reversed(todo):
        if needed is not None and not needed[f.node_index]:
            continue
        zo = z[f.lo:f.hi]
        if not lu:
            zo /= fr.d[:, None]
        if len(f.bnd_pos):
            panel_update(zo, fr.u12 if lu else fr.l21, z[f.bnd_pos],
                         trans=not lu)
        if lu:
            kern.multiply(fr.l11, zo, lower=False)
        else:
            kern.multiply(fr.l11, zo, lower=True, trans=True, unit=True)


def _planned(kind):
    """A factorization of each kind the plan prepares differently."""
    from repro.hmatrix.rk import RkMatrix

    if kind == "blr":
        grid = StructuredGrid(12, 10, 8)
        a = assemble_fem_matrix(grid, mode="real_spd").tocsr()
        f = _factorize(
            SparseSolver(blr=BLRConfig(tol=1e-3, min_panel=16)), a,
            grid.points(), symmetric_values=True)
        assert any(isinstance(p, RkMatrix)
                   for fr in f._fronts for p in (fr.l21, fr.u12))
        return a, f
    grid, a, symmetric = _sweep_matrix(
        "lu-complex" if kind == "lu-complex-pivoting" else kind)
    if kind == "lu-complex-pivoting":
        a = (a - 0.97 * sp.diags(a.diagonal())).tocsr()
    f = _factorize(
        SparseSolver(leaf_size=24, amalgamate=8), a, grid.points(),
        symmetric_values=symmetric)
    if kind == "lu-complex-pivoting":
        assert any(fr.perm is not None for fr in f._fronts)
    return a, f


@pytest.fixture(scope="module", params=[
    "ldlt-real", "lu-complex", "lu-complex-pivoting", "blr"])
def planned(request):
    a, f = _planned(request.param)
    yield a, f
    f.free()


class TestSweepPlan:
    """The sweep makes ``RowBlockKernel``'s BLAS calls from a plan built
    once per factorization, on views of the stored factors."""

    @pytest.mark.parametrize("cols", [1, 2, 64, 300])   # 300 > rhs_panel
    @pytest.mark.parametrize("rhs", ["dense", "complex", "sparse-wanted"])
    def test_is_the_kernel_sweep_bit_for_bit(self, planned, rhs, cols,
                                             monkeypatch):
        a, f = planned
        n = a.shape[0]
        rng = np.random.default_rng(cols)
        b = rng.standard_normal((n, cols)).astype(a.dtype)
        kw = {}
        if rhs == "complex":   # real factors sweep its (n, 2m) real view
            b = b + 1j * rng.standard_normal((n, cols))
        elif rhs == "sparse-wanted":
            b = sp.random(n, cols, density=0.02, format="csc",
                          random_state=cols, dtype=np.float64)
            kw["wanted"] = rng.permutation(n)[: n // 3]
        x = f.solve(b, **kw)
        with monkeypatch.context() as m:
            m.setattr(f, "_sweep", types.MethodType(_kernel_sweep, f))
            ref = f.solve(b, **kw)
        assert np.array_equal(x, ref)

    def test_refuses_a_factor_blas_would_copy(self, planned):
        _, f = planned
        fr = next(fr for fr in f._fronts if isinstance(fr.l21, np.ndarray)
                  and min(fr.l21.shape) > 1)
        kept = fr.l21
        try:
            fr.l21 = np.repeat(kept, 2, axis=1)[:, ::2]   # strided
            assert not fr.l21.flags.forc
            with pytest.raises(AssertionError, match="BLAS would copy"):
                f._sweep_plan()
        finally:
            fr.l21 = kept

    def test_every_operand_is_a_view_of_a_stored_factor(self, planned):
        from repro.hmatrix.rk import RkMatrix

        _, f = planned
        _, steps = f._plan
        stored = [fr for sf, fr in zip(f.symbolic.fronts, f._fronts)
                  if sf.n_own]
        assert len(steps) == len(stored)
        n_operands = 0
        for step, fr in zip(steps, stored):
            arrays = [fr.l11, fr.d, fr.perm]
            for panel in (fr.l21, fr.u12):
                arrays += ([panel.u, panel.v] if isinstance(panel, RkMatrix)
                           else [panel])
            arrays = [x for x in arrays if x is not None]
            operands = [step[4], step[5]] + [
                x for part in step[6:] if part is not None
                for x in part if isinstance(x, np.ndarray)]
            for op in operands:
                if op is None:
                    continue
                n_operands += 1
                assert any(np.shares_memory(op, x) and op.size == x.size
                           for x in arrays)
        assert n_operands > 2 * len(steps)

    def test_free_drops_the_plan_and_the_factors_with_it(self):
        _, f = _planned("ldlt-real")
        fr = next(fr for fr in f._fronts if fr.l21.size)
        owner = fr.l21 if fr.l21.base is None else fr.l21.base
        ref = weakref.ref(owner)
        del fr, owner
        f.free()
        gc.collect()
        assert f._plan is None
        assert ref() is None

    def test_pickle_ships_the_factors_not_the_plan(self, planned):
        a, f = planned
        assert f.__getstate__()["_plan"] is None
        data = pickle.dumps(f)
        factors_only = len(pickle.dumps((f.symbolic, f._fronts)))
        assert len(data) <= 1.01 * factors_only
        g = pickle.loads(data)
        assert g._plan is not None
        b = np.random.default_rng(2).standard_normal((a.shape[0], 3))
        assert np.array_equal(g.solve(b), f.solve(b))
        g.free()

    def test_concurrent_solves_share_the_plan(self, planned):
        """Solves on shared factors only read the plan: threads switching
        every microsecond get the serial answers bit for bit."""
        a, f = planned
        rng = np.random.default_rng(4)
        rhs = [rng.standard_normal((a.shape[0], m)).astype(a.dtype)
               for m in (1, 2, 1, 5, 1, 3)] * 4
        want = [f.solve(b) for b in rhs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(f.solve, rhs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))

    def test_a_schur_only_factorization_has_no_plan(self, spd_problem):
        grid, a = spd_problem
        kept = _factorize(
            SparseSolver(), a, grid.points(), symmetric_values=True)
        f = MultifrontalFactorization(a, kept.symbolic, symmetric_values=True,
                                      keep_factors=False)
        kept.free()
        assert f._plan is None
        with pytest.raises(ConfigurationError, match="keeps no factors"):
            f.solve(np.ones(a.shape[0]))
        f.free()


def test_concurrency_watchdog_is_installed():
    """``tests/conftest.py`` runs this module under the lock-order watchdog
    and the tracker-balance recorder (it matched on the wrong module name
    and installed neither until PR 15)."""
    import threading

    from tools.analysis.watchdog import _LockProxy

    assert isinstance(threading.Lock(), _LockProxy)
    assert MemoryTracker.__init__.__name__ == "recording_init"
