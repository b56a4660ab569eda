"""The sampled path into ``S``, in one file.

One range finder (:func:`repro.core.randomized.sample_schur_block_rk`),
one plan helper (:func:`repro.core.randomized.sample_border_plan`) and one
tree walk (``HMatrix._plan_walk``) serve compressed multi-solve with
``schur_assembly="randomized"``; everything that pins them lives here:

* the correction sampler and the adaptive range finder, including the
  rank test that returns ``None`` on a block that is not low-rank;
* the dense fallback that rank test triggers, forced with a full-rank
  operator (it never fires on the pipe, even at ε = 1e-11);
* equivalence of the sampled and the dense piece sources of the walk;
* the algorithm end to end: accuracy, counters, determinism per seed,
  tracked peak, and the configurations that must be refused.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.core import (
    ALGORITHMS,
    CoupledFactorization,
    SolverConfig,
    solve_coupled,
)
from repro.core.randomized import (
    CorrectionSampler,
    sample_border_plan,
    sample_schur_block_rk,
)
from repro.hmatrix.cluster import build_cluster_tree
from repro.hmatrix.hmatrix import hodlr_from_dense, hodlr_zeros
from repro.hmatrix.rk import RkMatrix
from repro.sparse import SparseSolver
from repro.utils.errors import ConfigurationError


@pytest.fixture(scope="module")
def sampler_setup(pipe_small):
    mf = SparseSolver().factorize(
        pipe_small.a_vv, coords=pipe_small.coords_v, symmetric_values=True
    )
    sampler = CorrectionSampler(mf, pipe_small.a_sv)
    # exact correction for reference
    y = spla.spsolve(pipe_small.a_vv.tocsc(), pipe_small.a_sv.T.toarray())
    k_exact = pipe_small.a_sv @ y
    return sampler, k_exact


@pytest.fixture(scope="module")
def separated_halves(pipe_small):
    """Two geometrically separated surface clusters (a HODLR quadrant)."""
    tree = build_cluster_tree(pipe_small.coords_s, leaf_size=64)
    c1, c2 = tree.root.children
    return tree.perm[c1.start:c1.stop], tree.perm[c2.start:c2.stop]


class TestSampler:
    def test_apply_matches_exact(self, sampler_setup, rng):
        sampler, k_exact = sampler_setup
        n = k_exact.shape[0]
        rows = np.arange(0, n, 2)
        cols = np.arange(1, n, 3)
        x = rng.standard_normal((len(cols), 4))
        got = sampler.apply(rows, cols, x)
        ref = k_exact[np.ix_(rows, cols)] @ x
        np.testing.assert_allclose(got, ref, atol=1e-8)

    def test_apply_transpose_matches_exact(self, sampler_setup, rng):
        sampler, k_exact = sampler_setup
        rows = np.arange(10, 100)
        cols = np.arange(40, 200)
        x = rng.standard_normal((len(rows), 3))
        got = sampler.apply_transpose(rows, cols, x)
        ref = k_exact[np.ix_(rows, cols)].T @ x
        np.testing.assert_allclose(got, ref, atol=1e-8)

    def test_dense_block_matches_exact(self, sampler_setup):
        sampler, k_exact = sampler_setup
        rows = np.arange(5, 25)
        cols = np.arange(50, 70)
        got = sampler.dense_block_exact(rows, cols, np.float64)
        np.testing.assert_allclose(got, k_exact[np.ix_(rows, cols)],
                                   atol=1e-10)

    def test_solve_counter_hook(self, pipe_small):
        mf = SparseSolver().factorize(
            pipe_small.a_vv, coords=pipe_small.coords_v,
            symmetric_values=True,
        )
        count = [0]
        sampler = CorrectionSampler(
            mf, pipe_small.a_sv, on_solve=lambda: count.__setitem__(0, count[0] + 1)
        )
        sampler.apply(np.arange(10), np.arange(10), np.eye(10))
        assert count[0] == 1
        mf.free()


class TestRandomizedBlockRk:
    def test_approximates_offdiagonal_block(self, sampler_setup,
                                            separated_halves, rng):
        sampler, k_exact = sampler_setup
        rows, cols = separated_halves
        rk = sample_schur_block_rk(sampler, rows, cols, tol=1e-8,
                                   rng=rng, dtype=np.float64)
        ref = k_exact[np.ix_(rows, cols)]
        err = np.linalg.norm(rk.to_dense() - ref) / np.linalg.norm(ref)
        assert err < 1e-6

    def test_rank_adapts_to_tolerance(self, sampler_setup, separated_halves,
                                      rng):
        sampler, _ = sampler_setup
        rows, cols = separated_halves
        loose = sample_schur_block_rk(sampler, rows, cols, tol=1e-2,
                                      rng=rng, dtype=np.float64,
                                      start_rank=4)
        tight = sample_schur_block_rk(sampler, rows, cols, tol=1e-9,
                                      rng=rng, dtype=np.float64,
                                      start_rank=4)
        assert loose.rank <= tight.rank

    def test_zero_coupling_gives_rank_zero(self, pipe_small, rng):
        mf = SparseSolver().factorize(
            pipe_small.a_vv, coords=pipe_small.coords_v,
            symmetric_values=True,
        )
        zero_coupling = sp.csr_matrix((pipe_small.n_bem, pipe_small.n_fem))
        sampler = CorrectionSampler(mf, zero_coupling)
        rk = sample_schur_block_rk(
            sampler, np.arange(20), np.arange(20, 50), tol=1e-6,
            rng=rng, dtype=np.float64,
        )
        assert rk.rank == 0
        mf.free()

    def test_rank_test_refuses_unseparated_block(self, sampler_setup, rng):
        """Index halves in *original* order interleave geometrically: the
        block has a flat spectrum and the rank cap is hit above tolerance —
        the finder says so instead of returning a full-rank product."""
        sampler, k_exact = sampler_setup
        n = k_exact.shape[0]
        rk = sample_schur_block_rk(
            sampler, np.arange(n // 2), np.arange(n // 2, n), tol=1e-3,
            rng=rng, dtype=np.float64,
        )
        assert rk is None


# ---------------------------------------------------------------------------
# the walk and its two piece sources
# ---------------------------------------------------------------------------

def _smooth_matrix(rng, n):
    """Kernel matrix on a line (low-rank off-diagonal) and its cluster tree."""
    x = np.sort(rng.uniform(0.0, 1.0, n))
    coords = np.column_stack([x, np.zeros(n), np.zeros(n)])
    full = 1.0 / (1.0 + 40.0 * np.abs(x[:, None] - x[None, :]))
    return full, build_cluster_tree(coords, leaf_size=32)


class TestWalkEquivalence:
    def test_refusing_sampler_is_the_dense_walk_bitwise(self, rng):
        """With every rank test refused, the sampled source hands the walk
        the very pieces the dense source slices — same plan, same ``S``."""
        full, tree = _smooth_matrix(rng, 256)
        rows = rng.permutation(256)[:200]
        cols = rng.permutation(256)[:150]
        update = rng.standard_normal((256, 256))
        dense = hodlr_from_dense(full, tree, tol=1e-8)
        sampled = hodlr_from_dense(full, tree, tol=1e-8)
        before = sampled.n_panel_compressions

        dense.commit_axpy(dense.precompress_axpy(
            -1.0, update[np.ix_(rows, cols)], rows, cols))
        plan, n_sampled, n_fallbacks = sampled.precompress_axpy_sampled(
            -1.0, rows, cols,
            sample_rk=lambda r, c: None,
            dense_piece=lambda r, c: update[np.ix_(r, c)],
            min_sample_dim=48,
        )
        sampled.commit_axpy(plan)

        assert n_sampled == 0 and n_fallbacks > 0
        assert (sampled.n_panel_compressions - before
                == dense.n_panel_compressions)
        assert np.array_equal(dense.to_dense(), sampled.to_dense())

    def test_exact_lowrank_callbacks_commit_to_the_same_s(self, rng):
        full, tree = _smooth_matrix(rng, 256)
        everything = np.arange(256)
        tol = 1e-8
        dense = hodlr_zeros(tree, tol, np.float64)
        sampled = hodlr_zeros(tree, tol, np.float64)

        dense.commit_axpy(dense.precompress_axpy(
            2.0, full, everything, everything))
        plan, n_sampled, n_fallbacks = sampled.precompress_axpy_sampled(
            2.0, everything, everything,
            sample_rk=lambda r, c: RkMatrix.from_dense(
                full[np.ix_(r, c)], 1e-12),
            dense_piece=lambda r, c: full[np.ix_(r, c)],
            min_sample_dim=64,
        )
        sampled.commit_axpy(plan)

        assert n_sampled > 0 and n_fallbacks == 0
        ref = np.linalg.norm(full)
        assert np.linalg.norm(sampled.to_dense() - dense.to_dense()) < 10 * tol * ref
        assert np.linalg.norm(sampled.to_dense() - 2.0 * full) < 10 * tol * ref


class _IdentityFactors:
    """Stands in for a factorization of ``A_vv = I``: ``K = A_sv A_svᵀ``."""

    def solve(self, rhs, exploit_sparsity=True):
        return np.asarray(rhs)

    def solve_transpose(self, rhs):
        return np.asarray(rhs)


class TestRankTestFallback:
    def test_full_rank_operator_takes_the_dense_fallback(self, rng):
        """A Gaussian coupling makes every off-diagonal block of ``K``
        full-rank with a flat spectrum: each attempted quadrant must be
        refused, counted, and replaced by the exact dense piece — so ``S``
        equals the dense compressed AXPY of the explicit ``K``."""
        n_s = 256
        _, tree = _smooth_matrix(rng, n_s)
        g = rng.standard_normal((n_s, 2 * n_s))
        k_exact = g @ g.T
        config = SolverConfig(dense_backend="hmat")
        rows = np.arange(n_s)

        sampler = CorrectionSampler(_IdentityFactors(), sp.csr_matrix(g))
        half = np.arange(n_s // 2)
        assert sample_schur_block_rk(
            sampler, half, half + n_s // 2, config.epsilon, rng, np.float64
        ) is None

        s = hodlr_zeros(tree, config.hierarchical_tol, np.float64)
        plan, n_sampled, n_fallbacks = sample_border_plan(
            s, _IdentityFactors(), sp.csr_matrix(g), rows, rows, config,
            np.float64,
        )
        s.commit_axpy(plan)
        # 256 → 128 → 64 are attempted (2 + 4 quadrants), 32 is below the floor
        assert n_sampled == 0
        assert n_fallbacks == 6

        ref = hodlr_zeros(tree, config.hierarchical_tol, np.float64)
        ref.commit_axpy(ref.precompress_axpy(-1.0, k_exact, rows, rows))
        scale = np.linalg.norm(k_exact)
        assert (np.linalg.norm(s.to_dense() - ref.to_dense())
                <= config.hierarchical_tol * scale)
        assert (np.linalg.norm(s.to_dense() + k_exact)
                <= 10 * config.hierarchical_tol * scale)


# ---------------------------------------------------------------------------
# compressed multi-solve, schur_assembly="randomized"
# ---------------------------------------------------------------------------

class TestEndToEnd:
    def test_randomized_matches_blocked(self, pipe_medium):
        base = SolverConfig(dense_backend="hmat", n_c=96, n_s_block=256)
        blocked = solve_coupled(pipe_medium, "multi_solve", base)
        randomized = solve_coupled(
            pipe_medium, "multi_solve",
            base.with_(schur_assembly="randomized"),
        )
        assert randomized.relative_error < base.epsilon
        np.testing.assert_allclose(blocked.x, randomized.x,
                                   atol=10 * base.epsilon)
        # the shared path reports what it sampled, like the borders do
        assert randomized.stats.params["n_sampled_borders"] > 0
        assert blocked.stats.params["n_sampled_borders"] == 0

    def test_no_dense_panel_category(self, pipe_medium):
        """The defining property: no spmm panel is ever allocated."""
        sol = solve_coupled(
            pipe_medium, "multi_solve",
            SolverConfig(dense_backend="hmat",
                         schur_assembly="randomized"),
        )
        assert "spmm_panel" not in sol.stats.peak_by_category

    def test_lower_peak_than_blocked(self, pipe_medium):
        base = SolverConfig(dense_backend="hmat", n_c=256, n_s_block=1024)
        blocked = solve_coupled(pipe_medium, "multi_solve", base)
        randomized = solve_coupled(
            pipe_medium, "multi_solve",
            base.with_(schur_assembly="randomized"),
        )
        assert randomized.stats.peak_bytes < blocked.stats.peak_bytes

    def test_deterministic_given_seed(self, pipe_small):
        cfg = SolverConfig(dense_backend="hmat",
                           schur_assembly="randomized", seed=42)
        a = solve_coupled(pipe_small, "multi_solve", cfg)
        b = solve_coupled(pipe_small, "multi_solve", cfg)
        np.testing.assert_array_equal(a.x, b.x)
        other = solve_coupled(pipe_small, "multi_solve", cfg.with_(seed=43))
        assert not np.array_equal(a.x, other.x)

    def test_symmetric_problem_samples_the_lower_quadrants_only(
            self, pipe_small, monkeypatch):
        """A lower-stored ``S`` never asks the sampler for a ``12``
        quadrant: fewer solves and another random stream than the
        two-sided walk, so the check is the residual against the exact
        operator, not byte identity."""
        from repro.core import schur_tools

        cfg = SolverConfig(dense_backend="hmat", schur_assembly="randomized")
        build = schur_tools.build_hodlr
        runs = {}
        for stored in (True, False):
            monkeypatch.setattr(
                schur_tools, "build_hodlr",
                lambda op, tree, symmetric, stored=stored, **kw:
                    build(op, tree, symmetric=stored, **kw))
            runs[stored] = solve_coupled(pipe_small, "multi_solve", cfg)
        lower, two_sided = runs[True], runs[False]
        p = pipe_small
        for sol in (lower, two_sided):
            r_v = p.b_v - (p.a_vv @ sol.x_v + p.a_sv.T @ sol.x_s)
            r_s = p.b_s - (p.a_sv @ sol.x_v + p.a_ss_op.matvec(sol.x_s))
            backward = np.sqrt(
                (np.linalg.norm(r_v) ** 2 + np.linalg.norm(r_s) ** 2)
                / (np.linalg.norm(p.b_v) ** 2 + np.linalg.norm(p.b_s) ** 2))
            assert backward <= cfg.epsilon
            assert sol.relative_error < cfg.epsilon
        assert 0 < (lower.stats.params["n_sampled_borders"]
                    < two_sided.stats.params["n_sampled_borders"])
        assert lower.stats.n_sparse_solves < two_sided.stats.n_sparse_solves

    def test_invalid_assembly_rejected(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(schur_assembly="magic")

    @pytest.mark.parametrize("backend", ["spido", "hmat"])
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_only_compressed_multi_solve_samples(self, pipe_small,
                                                 algorithm, backend):
        """Every other combination refuses the option instead of running
        the blocked assembly under its name."""
        cfg = SolverConfig(dense_backend=backend,
                           schur_assembly="randomized")
        if (algorithm, backend) == ("multi_solve", "hmat"):
            with CoupledFactorization(pipe_small, algorithm, cfg) as fact:
                assert fact.stats.params["n_sampled_borders"] > 0
            return
        for entry in (solve_coupled, CoupledFactorization):
            with pytest.raises(ConfigurationError):
                entry(pipe_small, algorithm, cfg)

    def test_complex_case(self, aircraft_small):
        sol = solve_coupled(
            aircraft_small, "multi_solve",
            SolverConfig(dense_backend="hmat", epsilon=1e-4,
                         schur_assembly="randomized"),
        )
        assert sol.relative_error < 1e-4
        assert sol.stats.params["n_sampled_borders"] > 0
