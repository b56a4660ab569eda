"""Tests for the dense BEM surface operators."""

import numpy as np
import pytest

from repro.fembem.bem import (
    KernelMatrix,
    helmholtz_kernel,
    laplace_kernel,
    make_surface_operator,
)
from repro.fembem.mesh import box_surface_points
from repro.utils.errors import ConfigurationError


@pytest.fixture(scope="module")
def points():
    return box_surface_points((4.0, 2.0, 2.0), 150, seed=11)


class TestKernels:
    def test_laplace_symmetric_positive(self, points):
        k = laplace_kernel(0.1)
        g = k(points, points)
        assert (g > 0).all()
        np.testing.assert_allclose(g, g.T)

    def test_laplace_decays_with_distance(self):
        k = laplace_kernel(0.01)
        x = np.zeros((1, 3))
        near = np.array([[0.5, 0, 0]])
        far = np.array([[5.0, 0, 0]])
        assert k(x, near)[0, 0] > k(x, far)[0, 0]

    def test_laplace_regularization_bounds_diagonal(self):
        k = laplace_kernel(0.2)
        x = np.zeros((1, 3))
        assert np.isfinite(k(x, x))[0, 0]
        assert k(x, x)[0, 0] == pytest.approx(1.0 / (4 * np.pi * 0.2))

    def test_helmholtz_is_complex_oscillatory(self, points):
        k = helmholtz_kernel(2.0, 0.1)
        g = k(points[:20], points[20:40])
        assert np.issubdtype(g.dtype, np.complexfloating)
        assert np.abs(g.imag).max() > 0

    def test_helmholtz_zero_wavenumber_reduces_to_laplace(self, points):
        kh = helmholtz_kernel(0.0, 0.1)
        kl = laplace_kernel(0.1)
        np.testing.assert_allclose(
            kh(points[:10], points[:10]).real, kl(points[:10], points[:10])
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            laplace_kernel(0.0)
        with pytest.raises(ConfigurationError):
            helmholtz_kernel(-1.0, 0.1)
        with pytest.raises(ConfigurationError):
            helmholtz_kernel(1.0, 0.0)


def _einsum_distance(x, y):
    """The distance as first written: an ``(m, n, 3)`` difference tensor
    contracted by einsum — the values the coordinate-wise one must keep."""
    diff = x[:, None, :] - y[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


class TestDistanceRounding:
    @pytest.mark.parametrize("kind", ["laplace", "helmholtz"])
    @pytest.mark.parametrize("rows", [slice(0, 1), slice(0, 150),
                                      slice(20, 97)],
                             ids=["one-row", "square", "view"])
    def test_kernel_values_unchanged_by_the_buffered_distance(
            self, points, monkeypatch, kind, rows):
        from repro.fembem import bem

        kernel = (laplace_kernel(0.07) if kind == "laplace"
                  else helmholtz_kernel(1.3, 0.07))
        x, y = points[rows], points[::-1][5:140]
        new = kernel(x, np.ascontiguousarray(y))
        monkeypatch.setattr(bem, "_pairwise_distance", _einsum_distance)
        old = kernel(x, np.ascontiguousarray(y))
        assert new.dtype == old.dtype and new.shape == old.shape
        assert np.array_equal(new, old)

    def test_no_three_dimensional_temporary(self, points):
        import tracemalloc

        from repro.fembem.bem import _pairwise_distance

        x = np.tile(points, (4, 1))  # 600 points: the result is 2.88 MB
        tracemalloc.start()
        r = _pairwise_distance(x, x)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # result + one coordinate buffer, not result + 3× tensor
        assert peak < 2.5 * r.nbytes


class TestKernelMatrix:
    def test_block_accepts_slices_as_index_arrays(self, points):
        op = make_surface_operator(points, kind="helmholtz", wavenumber=1.1)
        idx = np.arange(150)
        for rows, cols in [(slice(10, 60), slice(40, 90)),     # meets diagonal
                           (slice(0, 30), slice(30, 150)),     # clear of it
                           (slice(7, 8), slice(0, 150)),
                           (slice(0, 150), np.array([3, 99, 7])),
                           (slice(5, 5), slice(0, 150))]:      # empty
            np.testing.assert_array_equal(op.block(rows, cols),
                                          op.block(idx[rows], idx[cols]))

    def test_block_matches_to_dense(self, points):
        op = make_surface_operator(points, kind="laplace")
        dense = op.to_dense()
        rows = np.array([0, 5, 17])
        cols = np.array([3, 5, 99, 100])
        np.testing.assert_allclose(op.block(rows, cols),
                                   dense[np.ix_(rows, cols)])

    @pytest.mark.parametrize("kind", ["laplace", "helmholtz"])
    def test_to_dense_values_do_not_depend_on_the_slab(self, points, kind):
        op = make_surface_operator(points, kind=kind)
        whole = op.block(np.arange(150), np.arange(150))
        for block_size in (1, 37, 128, 1024):
            np.testing.assert_array_equal(op.to_dense(block_size), whole)

    def test_diagonal_shift_only_on_diagonal(self, points):
        op = make_surface_operator(points, kind="laplace", diagonal_shift=2.5)
        dense = op.to_dense()
        off = dense - np.diag(np.diag(dense))
        base = make_surface_operator(points, kind="laplace", diagonal_shift=0.0)
        np.testing.assert_allclose(off, base.to_dense()
                                   - np.diag(np.diag(base.to_dense())))

    def test_matvec_matches_dense(self, points):
        op = make_surface_operator(points, kind="helmholtz", wavenumber=1.5)
        dense = op.to_dense()
        rng = np.random.default_rng(0)
        x = rng.standard_normal(len(points)) + 1j * rng.standard_normal(len(points))
        np.testing.assert_allclose(op.matvec(x, block_size=37), dense @ x,
                                   rtol=1e-12)

    def test_matvec_matrix_rhs(self, points):
        op = make_surface_operator(points, kind="laplace")
        dense = op.to_dense()
        x = np.random.default_rng(1).standard_normal((len(points), 3))
        np.testing.assert_allclose(op.matvec(x, block_size=64), dense @ x,
                                   rtol=1e-12)

    def test_matvec_dimension_mismatch(self, points):
        op = make_surface_operator(points)
        with pytest.raises(ConfigurationError):
            op.matvec(np.zeros(3))

    def test_operator_well_conditioned(self, points):
        """The second-kind shift keeps A_ss comfortably invertible."""
        op = make_surface_operator(points, kind="laplace")
        assert np.linalg.cond(op.to_dense()) < 100

    def test_symmetric_on_same_points(self, points):
        for kind in ("laplace", "helmholtz"):
            op = make_surface_operator(points, kind=kind)
            d = op.to_dense()
            np.testing.assert_allclose(d, d.T)

    def test_rectangular_operator(self, points):
        op = KernelMatrix(points[:30], points[30:80], laplace_kernel(0.1))
        assert op.shape == (30, 50)
        assert op.to_dense().shape == (30, 50)

    def test_diagonal_shift_requires_square(self, points):
        with pytest.raises(ConfigurationError):
            KernelMatrix(points[:10], points[:20], laplace_kernel(0.1),
                         diagonal_shift=1.0)

    def test_nbytes_dense(self, points):
        op = make_surface_operator(points)
        assert op.nbytes_dense() == len(points) ** 2 * 8

    def test_row_and_col_blocks(self, points):
        op = make_surface_operator(points)
        dense = op.to_dense()
        np.testing.assert_allclose(op.row_block([2, 4]), dense[[2, 4]])
        np.testing.assert_allclose(op.col_block([7]), dense[:, [7]])

    def test_bad_points_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelMatrix(np.zeros((5, 2)), np.zeros((5, 2)),
                         laplace_kernel(0.1))

    def test_unknown_kind_rejected(self, points):
        with pytest.raises(ConfigurationError):
            make_surface_operator(points, kind="stokes")
