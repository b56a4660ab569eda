"""Tests for the hierarchical LU factorization of HODLR matrices."""

import numpy as np
import pytest

from repro.fembem.bem import make_surface_operator
from repro.fembem.mesh import box_surface_points
from repro.hmatrix.cluster import build_cluster_tree
from repro.hmatrix.factorization import HLUFactorization
from repro.hmatrix.hmatrix import build_hodlr, hodlr_from_dense
from repro.utils.errors import ConfigurationError, SingularMatrixError


@pytest.fixture(scope="module")
def setup():
    pts = box_surface_points((8.0, 2.0, 2.0), 320, seed=8)
    tree = build_cluster_tree(pts, leaf_size=40)
    return pts, tree


class TestSolve:
    def test_real_kernel_system(self, setup, rng):
        pts, tree = setup
        op = make_surface_operator(pts, kind="laplace")
        dense = op.to_dense()
        hm = build_hodlr(op, tree, tol=1e-8)
        f = HLUFactorization(hm)
        b = rng.standard_normal(len(pts))
        x = f.solve(b)
        assert np.linalg.norm(dense @ x - b) / np.linalg.norm(b) < 1e-6

    def test_complex_helmholtz_system(self, setup, rng):
        pts, tree = setup
        op = make_surface_operator(pts, kind="helmholtz", wavenumber=1.5)
        dense = op.to_dense()
        hm = build_hodlr(op, tree, tol=1e-8)
        f = HLUFactorization(hm)
        b = rng.standard_normal(len(pts)) + 1j * rng.standard_normal(len(pts))
        x = f.solve(b)
        assert np.linalg.norm(dense @ x - b) / np.linalg.norm(b) < 1e-6

    def test_multiple_rhs(self, setup, rng):
        pts, tree = setup
        op = make_surface_operator(pts)
        dense = op.to_dense()
        f = HLUFactorization(build_hodlr(op, tree, tol=1e-9))
        b = rng.standard_normal((len(pts), 5))
        x = f.solve(b)
        assert np.abs(dense @ x - b).max() < 1e-6

    def test_accuracy_tracks_tolerance(self, setup, rng):
        pts, tree = setup
        op = make_surface_operator(pts)
        dense = op.to_dense()
        b = rng.standard_normal(len(pts))
        errs = []
        for tol in (1e-3, 1e-6, 1e-9):
            f = HLUFactorization(build_hodlr(op, tree, tol=tol))
            x = f.solve(b)
            errs.append(np.linalg.norm(dense @ x - b) / np.linalg.norm(b))
        assert errs[2] < errs[1] < errs[0]

    def test_nonsymmetric_dense_matrix(self, setup, rng):
        """H-LU must not assume symmetry (multi-fact Schur is unsym)."""
        pts, tree = setup
        n = len(pts)
        a = rng.standard_normal((n, n)) * 0.05 + np.diag(
            2.0 + rng.uniform(0, 1, n)
        )
        hm = hodlr_from_dense(a, tree, tol=1e-10)
        f = HLUFactorization(hm)
        b = rng.standard_normal(n)
        x = f.solve(b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-6

    def test_input_hmatrix_unchanged(self, setup, rng):
        pts, tree = setup
        op = make_surface_operator(pts)
        hm = build_hodlr(op, tree, tol=1e-8)
        before = hm.to_dense()
        HLUFactorization(hm)
        np.testing.assert_array_equal(hm.to_dense(), before)

    def test_identity_matrix(self, setup):
        pts, tree = setup
        n = len(pts)
        hm = hodlr_from_dense(np.eye(n), tree, tol=1e-10)
        f = HLUFactorization(hm)
        b = np.arange(n, dtype=float)
        np.testing.assert_allclose(f.solve(b), b, atol=1e-10)

    def test_singular_leaf_raises(self, setup):
        pts, tree = setup
        n = len(pts)
        hm = hodlr_from_dense(np.zeros((n, n)), tree, tol=1e-10)
        with pytest.raises(SingularMatrixError):
            HLUFactorization(hm)

    def test_lower_stored_matrix_is_refused(self, setup):
        """A symmetric ``HMatrix`` has no ``12`` blocks for H-LU to
        transform: a clear error, not a missing key or factored zeros."""
        pts, tree = setup
        op = make_surface_operator(pts)
        for hm in (build_hodlr(op, tree, tol=1e-6, symmetric=True),
                   hodlr_from_dense(np.eye(len(pts)), tree, tol=1e-10,
                                    symmetric=True)):
            with pytest.raises(ConfigurationError, match="HLDLTFactorization"):
                HLUFactorization(hm)


class TestAccounting:
    def test_factor_bytes_positive_and_bounded(self, setup):
        pts, tree = setup
        op = make_surface_operator(pts)
        hm = build_hodlr(op, tree, tol=1e-4)
        f = HLUFactorization(hm)
        n = len(pts)
        assert 0 < f.nbytes() < 2 * n * n * 8

    def test_max_rank_reported(self, setup):
        pts, tree = setup
        op = make_surface_operator(pts)
        f = HLUFactorization(build_hodlr(op, tree, tol=1e-6))
        assert f.max_rank() >= 1
