"""Tests for the HODLR hierarchical matrix container."""

import numpy as np
import pytest

from repro.fembem.bem import make_surface_operator
from repro.fembem.mesh import box_surface_points
from repro.hmatrix.cluster import build_cluster_tree
from repro.hmatrix.hmatrix import (
    _node_add_rk,
    build_hodlr,
    hodlr_from_dense,
    hodlr_zeros,
)
from repro.hmatrix.rk import RkMatrix
from repro.utils.errors import ConfigurationError


@pytest.fixture(scope="module")
def setup():
    pts = box_surface_points((8.0, 2.0, 2.0), 350, seed=4)
    tree = build_cluster_tree(pts, leaf_size=40)
    op = make_surface_operator(pts, kind="laplace")
    dense = op.to_dense()
    return pts, tree, op, dense


class TestAssembly:
    def test_kernel_assembly_accuracy(self, setup):
        _, tree, op, dense = setup
        hm = build_hodlr(op, tree, tol=1e-7)
        err = np.abs(hm.to_dense() - dense).max()
        assert err < 1e-5 * np.abs(dense).max()

    def test_kernel_assembly_compresses(self, setup):
        _, tree, op, dense = setup
        hm = build_hodlr(op, tree, tol=1e-4)
        assert hm.nbytes() < dense.nbytes
        assert hm.compression_ratio() < 1.0

    def test_symmetric_build_mirrors_the_21_blocks(self, setup):
        """``symmetric=True``: only the ``21`` blocks are crossed and
        stored; readers mirror them into the upper half."""
        _, tree, op, dense = setup
        calls = []
        block = type(op).block

        def counted(self, rows, cols):
            calls.append(1)
            return block(self, rows, cols)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(type(op), "block", counted)
            both = build_hodlr(op, tree, tol=1e-7)
            n_both, _ = len(calls), calls.clear()
            hm = build_hodlr(op, tree, tol=1e-7, symmetric=True)
        assert hm.symmetric and not both.symmetric
        n_leaves = 0

        def walk(node, twin):
            nonlocal n_leaves
            if node.is_leaf:
                n_leaves += 1
                assert np.array_equal(node.dense, twin.dense)
                return
            assert set(node.rk) == {"21"} and set(twin.rk) == {"12", "21"}
            # the 21 side is the very block the two-sided build crosses
            assert np.array_equal(node.rk21.u, twin.rk21.u)
            assert np.array_equal(node.rk21.v, twin.rk21.v)
            walk(node.h11, twin.h11)
            walk(node.h22, twin.h22)

        walk(hm.root, both.root)
        # the requests of the 12 side are saved, the leaves' stay
        assert n_leaves < len(calls) < 0.55 * n_both
        assert np.array_equal(hm.to_dense(), hm.to_dense().T)
        assert np.abs(hm.to_dense() - dense).max() < 1e-5 * np.abs(dense).max()

    def test_every_evaluation_goes_through_the_operator_block(self, setup):
        """The harness counts kernel work at ``KernelMatrix.block``: the
        cluster-ordered copy ``build_hodlr`` works on must stay behind it,
        and must ask for what the original would have been asked for."""
        _, tree, op, _ = setup
        ordered = op.permuted(tree.perm)
        assert type(ordered) is type(op) and ordered.dtype == op.dtype
        idx = np.array([3, 77, 200, 349])
        assert np.array_equal(ordered.block(idx, slice(40, 90)),
                              op.block(tree.perm[idx], tree.perm[40:90]))
        # a slice meeting the diagonal carries the shift, one clear of it
        # does not even build the mask
        own = slice(10, 50)
        assert np.array_equal(ordered.block(own, own),
                              op.block(tree.perm[own], tree.perm[own]))
        assert np.array_equal(ordered.block(own, own).diagonal(),
                              op.to_dense().diagonal()[tree.perm[own]])

    def test_from_dense_accuracy(self, setup):
        _, tree, _, dense = setup
        hm = hodlr_from_dense(dense, tree, tol=1e-8)
        assert np.abs(hm.to_dense() - dense).max() < 1e-6

    def test_zeros(self, setup):
        _, tree, _, _ = setup
        hz = hodlr_zeros(tree, 1e-6, np.float64)
        assert np.abs(hz.to_dense()).max() == 0.0
        assert hz.max_rank() == 0

    def test_shape_mismatch_rejected(self, setup):
        _, tree, op, dense = setup
        with pytest.raises(ConfigurationError):
            hodlr_from_dense(dense[:-1, :-1], tree, tol=1e-6)

    def test_tighter_tolerance_costs_more_memory(self, setup):
        _, tree, op, _ = setup
        loose = build_hodlr(op, tree, tol=1e-2)
        tight = build_hodlr(op, tree, tol=1e-8)
        assert loose.nbytes() < tight.nbytes()


class TestMatvec:
    def test_matches_dense(self, setup, rng):
        _, tree, op, dense = setup
        hm = build_hodlr(op, tree, tol=1e-9)
        x = rng.standard_normal(dense.shape[0])
        np.testing.assert_allclose(hm.matvec(x), dense @ x, rtol=1e-6,
                                   atol=1e-8)

    def test_block_rhs(self, setup, rng):
        _, tree, op, dense = setup
        hm = build_hodlr(op, tree, tol=1e-9)
        x = rng.standard_normal((dense.shape[0], 4))
        np.testing.assert_allclose(hm.matvec(x), dense @ x, rtol=1e-6,
                                   atol=1e-8)

    def test_dimension_mismatch_rejected(self, setup):
        _, tree, op, _ = setup
        hm = build_hodlr(op, tree, tol=1e-4)
        with pytest.raises(ConfigurationError):
            hm.matvec(np.zeros(3))


class TestCompressedAxpy:
    def test_full_block_update(self, setup, rng):
        _, tree, _, dense = setup
        n = dense.shape[0]
        hm = hodlr_from_dense(dense, tree, tol=1e-9)
        upd = rng.standard_normal((n, n))
        hm.axpy_dense(-0.5, upd, np.arange(n), np.arange(n))
        hm.flush_accumulators()
        np.testing.assert_allclose(hm.to_dense(), dense - 0.5 * upd,
                                   atol=1e-5 * np.abs(dense).max())

    def test_scattered_column_block(self, setup, rng):
        """Original-index column blocks scatter across the cluster order."""
        _, tree, _, dense = setup
        n = dense.shape[0]
        cols = np.arange(37, 161)  # contiguous original columns
        upd = rng.standard_normal((n, len(cols)))
        hm = hodlr_from_dense(dense, tree, tol=1e-10)
        hm.axpy_dense(-1.0, upd, np.arange(n), cols)
        hm.flush_accumulators()
        ref = dense.copy()
        ref[:, cols] -= upd
        np.testing.assert_allclose(hm.to_dense(), ref, atol=1e-5)

    def test_arbitrary_index_subsets(self, setup, rng):
        _, tree, _, dense = setup
        n = dense.shape[0]
        rows = rng.choice(n, size=60, replace=False)
        cols = rng.choice(n, size=45, replace=False)
        upd = rng.standard_normal((60, 45))
        hm = hodlr_from_dense(dense, tree, tol=1e-10)
        hm.axpy_dense(2.0, upd, rows, cols)
        hm.flush_accumulators()
        ref = dense.copy()
        ref[np.ix_(rows, cols)] += 2.0 * upd
        np.testing.assert_allclose(hm.to_dense(), ref, atol=1e-5)

    def test_square_subblock_update(self, setup, rng):
        """Multi-factorization style S_ij block."""
        _, tree, _, dense = setup
        rows = np.arange(100, 200)
        cols = np.arange(250, 350)
        upd = rng.standard_normal((100, 100))
        hm = hodlr_from_dense(dense, tree, tol=1e-10)
        hm.axpy_dense(1.0, upd, rows, cols)
        hm.flush_accumulators()
        ref = dense.copy()
        ref[np.ix_(rows, cols)] += upd
        np.testing.assert_allclose(hm.to_dense(), ref, atol=1e-5)

    def test_shape_mismatch_rejected(self, setup):
        _, tree, _, dense = setup
        hm = hodlr_from_dense(dense, tree, tol=1e-6)
        with pytest.raises(ConfigurationError):
            hm.axpy_dense(1.0, np.zeros((3, 3)), np.arange(4), np.arange(3))

    def test_repeated_axpys_accumulate(self, setup, rng):
        """The multi-solve loop: many successive column-block subtractions."""
        _, tree, _, dense = setup
        n = dense.shape[0]
        hm = hodlr_from_dense(dense, tree, tol=1e-10)
        ref = dense.copy()
        for lo in range(0, n, 80):
            hi = min(n, lo + 80)
            upd = rng.standard_normal((n, hi - lo))
            hm.axpy_dense(-1.0, upd, np.arange(n), np.arange(lo, hi))
            ref[:, lo:hi] -= upd
        hm.flush_accumulators()
        np.testing.assert_allclose(hm.to_dense(), ref, atol=2e-4)


class TestAddRkAndCopy:
    def test_add_rk_global(self, setup, rng):
        _, tree, _, dense = setup
        n = dense.shape[0]
        hm = hodlr_from_dense(dense, tree, tol=1e-10)
        u = rng.standard_normal((n, 3))
        v = rng.standard_normal((n, 3))
        # the H-LU / H-LDLᵀ Schur update works in permuted coordinates
        perm = tree.perm
        _node_add_rk(hm.root, RkMatrix(u, v), hm.tol)
        ref = dense.copy()
        ref[np.ix_(perm, perm)] += u @ v.T
        np.testing.assert_allclose(hm.to_dense(), ref, atol=1e-5)

    def test_rank_zero_piece_leaves_the_block_untouched(self, setup):
        """An update that rounds to nothing on an off-diagonal block keeps
        that block's object; the other side is recompressed."""
        _, tree, _, dense = setup
        n = dense.shape[0]
        hm = hodlr_from_dense(dense, tree, tol=1e-10)
        root = hm.root
        cut = root.mid - root.start
        before = dict(root.rk)
        # rows only in the first half: the 21 piece is zero, the 12 is not
        u = np.zeros((n, 1))
        u[:cut] = 1.0
        _node_add_rk(root, RkMatrix(u, np.ones((n, 1))), hm.tol)
        assert root.rk["21"] is before["21"]
        assert root.rk["12"] is not before["12"]

    def test_copy_is_independent(self, setup, rng):
        _, tree, _, dense = setup
        n = dense.shape[0]
        hm = hodlr_from_dense(dense, tree, tol=1e-10)
        cp = hm.copy()
        hm.axpy_dense(1.0, np.ones((n, n)), np.arange(n), np.arange(n))
        np.testing.assert_allclose(cp.to_dense(), dense, atol=1e-5)

    def test_nbytes_grows_after_update(self, setup, rng):
        _, tree, _, dense = setup
        n = dense.shape[0]
        hm = hodlr_from_dense(dense, tree, tol=1e-6)
        before = hm.nbytes()
        hm.axpy_dense(1.0, rng.standard_normal((n, n)),
                      np.arange(n), np.arange(n))
        assert hm.nbytes() > before  # random update is incompressible


class TestLowerStored:
    """A symmetric matrix stores its ``21`` blocks only: every reader must
    give what the two-sided matrix of the same operator gives."""

    @pytest.fixture(params=["laplace", "helmholtz"])
    def pair(self, request, setup):
        pts, tree, _, _ = setup
        op = make_surface_operator(pts, kind=request.param)
        lower = build_hodlr(op, tree, tol=1e-7, symmetric=True)
        both = build_hodlr(op, tree, tol=1e-7)
        assert lower.dtype == both.dtype == op.dtype
        return lower, both, op.to_dense()

    @staticmethod
    def _upper_nbytes(hm):
        """Bytes of the ``12`` side (factors + pending), by tree walk."""
        def walk(node):
            if node.is_leaf:
                return 0
            own = node.rk["12"].nbytes
            if "12" in node.acc:
                own += node.acc["12"].pending_nbytes
            return own + walk(node.h11) + walk(node.h22)
        return walk(hm.root)

    def _check_readers(self, lower, both, rng, atol):
        n = lower.shape[0]
        ld, bd = lower.to_dense(), both.to_dense()
        # the stored triangle is the two-sided matrix's, bit for bit; the
        # implied one is its plain transpose (also for complex symmetric)
        perm = lower.tree.perm
        tril = np.tril(np.ones((n, n), dtype=bool))
        assert np.array_equal(ld[np.ix_(perm, perm)][tril],
                              bd[np.ix_(perm, perm)][tril])
        assert np.array_equal(ld, ld.T)
        np.testing.assert_allclose(ld, bd, rtol=0, atol=atol)
        x = rng.standard_normal((n, 3)).astype(lower.dtype)
        np.testing.assert_allclose(lower.matvec(x), ld @ x,
                                   rtol=0, atol=1e-10 * np.abs(ld).max() * n)
        np.testing.assert_allclose(lower.matvec(x[:, 0]), both.matvec(x[:, 0]),
                                   rtol=0, atol=atol * n)
        assert lower.nbytes() == both.nbytes() - self._upper_nbytes(both)

    def test_readers_match_the_two_sided_matrix(self, pair, rng):
        lower, both, dense = pair
        scale = np.abs(dense).max()
        self._check_readers(lower, both, rng, atol=1e-5 * scale)
        assert lower.max_rank() <= both.max_rank()
        # the same symmetric update, pending and then flushed
        n = lower.shape[0]
        g = rng.standard_normal((n, 12)).astype(lower.dtype)
        update = (g @ g.T) * (scale / n)
        for lo in range(0, n, 90):
            cols = np.arange(lo, min(n, lo + 90))
            for hm in (lower, both):
                hm.axpy_dense(-1.0, update[:, cols], np.arange(n), cols)
        assert lower.pending_accumulator_nbytes() > 0
        assert lower.pending_accumulator_nbytes() < (
            both.pending_accumulator_nbytes())
        assert lower.nbytes() == both.nbytes() - self._upper_nbytes(both)
        for hm in (lower, both):
            hm.flush_accumulators()
        assert lower.pending_accumulator_nbytes() == 0
        self._check_readers(lower, both, rng, atol=1e-5 * scale)
        np.testing.assert_allclose(lower.to_dense(), dense - update,
                                   rtol=0, atol=1e-5 * scale)

    def test_copy_skeleton_and_builders_keep_the_flag(self, pair):
        lower, _, dense = pair
        for hm in (lower.copy(), lower.structure_skeleton(),
                   hodlr_from_dense(dense, lower.tree, tol=1e-7,
                                    symmetric=True),
                   hodlr_zeros(lower.tree, 1e-7, lower.dtype,
                               symmetric=True)):
            assert hm.symmetric and hm.sides == ("21",)
            assert set(hm.root.rk) <= {"21"}
        assert set(lower.copy().root.rk) == {"21"}
        assert lower.structure_skeleton().root.rk == {}
