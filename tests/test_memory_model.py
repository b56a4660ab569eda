"""Tests for the analytic paper-scale memory model."""

import math

import pytest

from repro.memory.model import (
    ALGORITHMS,
    PIPE_BEM_COEFF,
    CouplingMemoryModel,
    ProblemDims,
    paper_pipe_dims,
    predict_max_unknowns,
)
from repro.utils.errors import ConfigurationError


class TestProblemDims:
    def test_counts_must_add_up(self):
        ProblemDims(100, 90, 10)
        with pytest.raises(ConfigurationError):
            ProblemDims(100, 80, 10)

    def test_positive_counts_required(self):
        with pytest.raises(ConfigurationError):
            ProblemDims(100, 100, 0)

    def test_paper_pipe_dims_matches_table1(self):
        """The N^(2/3) split reproduces the paper's Table I within 1%."""
        for n, bem in [(1_000_000, 37_169), (2_000_000, 58_910),
                       (4_000_000, 93_593), (9_000_000, 160_234)]:
            dims = paper_pipe_dims(n)
            assert dims.n_bem == pytest.approx(bem, rel=0.01)
            assert dims.n_fem + dims.n_bem == n

    def test_coefficient_is_calibrated_to_paper(self):
        assert PIPE_BEM_COEFF == pytest.approx(3.71, abs=0.02)


class TestModelComponents:
    def setup_method(self):
        self.model = CouplingMemoryModel()
        self.dims = paper_pipe_dims(2_000_000)

    def test_dense_bytes(self):
        assert self.model.dense_bytes(1000) == 8_000_000
        assert self.model.dense_bytes(10, 20) == 1600

    def test_factor_scales_superlinearly(self):
        f1 = self.model.sparse_factor_bytes(100_000)
        f2 = self.model.sparse_factor_bytes(200_000)
        assert f2 > 2 * f1

    def test_compression_reduces_factor(self):
        dense = self.model.sparse_factor_bytes(1_000_000, compressed=False)
        blr = self.model.sparse_factor_bytes(1_000_000, compressed=True)
        assert blr < dense

    def test_hodlr_much_smaller_than_dense(self):
        n = 100_000
        assert self.model.hodlr_bytes(n) < 0.05 * self.model.dense_bytes(n)

    def test_hodlr_small_block_is_dense(self):
        leaf = self.model.hodlr_leaf
        assert self.model.hodlr_bytes(leaf) == self.model.dense_bytes(leaf)

    def test_all_algorithms_have_components(self):
        for algo in ALGORITHMS:
            comps = self.model.peak_components(algo, self.dims)
            assert comps, algo
            assert all(v >= 0 for v in comps.values())

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            self.model.peak_components("nope", self.dims)

    def test_baseline_has_the_big_solve_panel(self):
        comps = self.model.peak_components("baseline", self.dims)
        assert comps["solve_panel_Y"] == self.model.dense_bytes(
            self.dims.n_fem, self.dims.n_bem
        )

    def test_compressed_multi_solve_beats_dense_variants(self):
        """Peak ordering at paper scale matches Fig. 10's capacity order."""
        peaks = {
            algo: self.model.peak_bytes(algo, self.dims)
            for algo in ALGORITHMS
        }
        assert peaks["multi_solve_compressed"] < peaks["multi_solve"]
        assert peaks["multi_solve"] < peaks["baseline"]
        assert (
            peaks["multi_solve_compressed"]
            < peaks["multi_factorization_compressed"]
        )

    def test_unsym_duplication_needs_an_unsymmetric_block(self):
        """The one resident factor is the last diagonal W block's, kept
        LDLᵀ on a symmetric system at any n_b (the off-diagonal LU blocks
        keep none); the duplicated LU storage applies only when the
        system itself is non-symmetric."""
        sym = self.model
        unsym = CouplingMemoryModel(symmetric=False)
        once = sym.sparse_factor_bytes(self.dims.n_fem)
        for algo in ("multi_factorization", "multi_factorization_compressed"):
            def factor(model, n_b):
                return model.peak_components(
                    algo, self.dims, n_b=n_b)["sparse_factor"]
            for n_b in (1, 2, 8):
                assert factor(sym, n_b) == once
                assert factor(unsym, n_b) == once * unsym.unsym_duplication

    def test_pending_accumulators_grow_with_the_window(self, monkeypatch):
        """The compressed multi-solve holds one ``n_S`` window of pending
        AXPY pieces; past the rank at which a block is recompressed
        (``rk.MAX_ACCUMULATED_RANK``) the term stops growing."""
        import repro.hmatrix.rk as rk_mod

        def pending(n_s_block):
            return self.model.peak_components(
                "multi_solve_compressed", self.dims, n_c=256,
                n_s_block=n_s_block)["axpy_pending"]

        sizes = [256, 1024, 4096]
        assert [pending(n) for n in sizes] == sorted(
            pending(n) for n in sizes)
        assert pending(256) < pending(4096)
        # at a rank budget of 1, a window over all of S holds one column
        # and one row of factors in every stored block: n_bem per level
        monkeypatch.setattr(rk_mod, "MAX_ACCUMULATED_RANK", 1)
        n = self.dims.n_bem
        levels = math.ceil(math.log2(n / self.model.hodlr_leaf))
        assert pending(n) == pytest.approx(levels * n * self.model.itemsize)

    @pytest.mark.parametrize("algorithm", [
        "multi_factorization", "multi_factorization_compressed"])
    def test_multifact_blocks_in_flight_follow_the_workers(self, algorithm):
        def block_terms(n_workers, n_b):
            comps = self.model.peak_components(
                algorithm, self.dims, n_b=n_b, n_workers=n_workers)
            return comps["schur_block_X"] + comps["schur_front_workspace"]

        # a symmetric system runs n_b(n_b+1)/2 blocks: 3 at n_b = 2
        assert block_terms(2, 2) == 2 * block_terms(1, 2)
        assert block_terms(4, 2) == block_terms(3, 2) == 3 * block_terms(1, 2)

    def test_more_blocks_reduce_multifact_peak(self):
        p1 = self.model.peak_bytes("multi_factorization", self.dims, n_b=1)
        p8 = self.model.peak_bytes("multi_factorization", self.dims, n_b=8)
        assert p8 < p1


class TestPrediction:
    def test_predict_monotone_in_limit(self):
        model = CouplingMemoryModel()
        small = predict_max_unknowns(model, "multi_solve", 16 * 1024**3)
        big = predict_max_unknowns(model, "multi_solve", 128 * 1024**3)
        assert big > small

    def test_predicted_peak_fits_limit(self):
        model = CouplingMemoryModel()
        limit = 128 * 1024**3
        n = predict_max_unknowns(model, "advanced", limit)
        assert model.peak_bytes("advanced", paper_pipe_dims(n)) <= limit

    def test_capacity_ordering_at_128gib(self):
        """The model reproduces the paper's capacity ordering on 128 GiB."""
        model = CouplingMemoryModel()
        limit = 128 * 1024**3
        caps = {
            algo: predict_max_unknowns(model, algo, limit)
            for algo in ALGORITHMS
        }
        assert caps["multi_solve_compressed"] > caps["multi_solve"]
        assert caps["multi_solve"] > caps["advanced"]
        assert caps["multi_solve_compressed"] > caps[
            "multi_factorization_compressed"
        ]

    def test_zero_when_nothing_fits(self):
        model = CouplingMemoryModel()
        assert predict_max_unknowns(model, "baseline", 1024) == 0


class TestCalibration:
    def test_calibrated_factor_coefficient(self):
        model = CouplingMemoryModel(sparse_compression=False)
        n = 50_000
        measured = 12.0 * n ** (4.0 / 3.0) * model.itemsize
        fitted = model.calibrated(factor_samples=[(n, measured)])
        assert fitted.sparse_factor_coeff == pytest.approx(12.0)

    def test_calibrated_hodlr_rank(self):
        model = CouplingMemoryModel()
        n = 4096
        target_rank = 24.0
        fitted = CouplingMemoryModel(hodlr_rank=target_rank)
        measured = fitted.hodlr_bytes(n)
        recovered = model.calibrated(hodlr_samples=[(n, measured)])
        assert recovered.hodlr_rank == pytest.approx(target_rank, rel=0.01)

    def test_symmetric_system_stores_one_off_diagonal_side(self):
        """The compressed ``S`` of a symmetric system keeps its ``21``
        blocks only: half the off-diagonal bytes, the same leaves."""
        n = 4096
        lower = CouplingMemoryModel()
        both = CouplingMemoryModel(symmetric=False)
        assert lower.symmetric
        diag = n * lower.hodlr_leaf * lower.itemsize
        assert both.hodlr_bytes(n) - diag == 2 * (lower.hodlr_bytes(n) - diag)

    def test_calibrated_rank_of_a_lower_stored_matrix_is_a_rank(self):
        """Fitted from the bytes of a real lower-stored ``S``, the mean
        rank must sit among the ranks the matrix actually has — the
        two-sided formula would report half of it."""
        from repro.fembem.bem import make_surface_operator
        from repro.fembem.mesh import box_surface_points
        from repro.hmatrix import build_cluster_tree, build_hodlr

        pts = box_surface_points((8.0, 2.0, 2.0), 1024, seed=4)
        tree = build_cluster_tree(pts, leaf_size=64)
        op = make_surface_operator(pts, kind="laplace")
        fitted = {}
        for symmetric in (True, False):
            hm = build_hodlr(op, tree, tol=1e-4, symmetric=symmetric)
            ranks = []

            def collect(node, ranks=ranks):
                if not node.is_leaf:
                    ranks.extend(rk.rank for rk in node.rk.values())
                    collect(node.h11)
                    collect(node.h22)

            collect(hm.root)
            model = CouplingMemoryModel(symmetric=symmetric).calibrated(
                hodlr_samples=[(tree.n, hm.nbytes())])
            assert min(ranks) <= model.hodlr_rank <= max(ranks)
            fitted[symmetric] = model.hodlr_rank
        assert fitted[True] == pytest.approx(fitted[False], rel=0.15)
        mismatched = CouplingMemoryModel(symmetric=False).calibrated(
            hodlr_samples=[(tree.n, build_hodlr(
                op, tree, tol=1e-4, symmetric=True).nbytes())])
        assert mismatched.hodlr_rank < 0.7 * fitted[True]

    def test_calibration_without_samples_is_identity(self):
        model = CouplingMemoryModel()
        assert model.calibrated() == model
