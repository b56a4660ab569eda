"""Integration tests: the four coupling algorithms on the pipe case.

These are the paper's correctness checks in miniature: every algorithm
must produce the manufactured solution within the compression tolerance,
the compressed variants must actually compress, and the blockwise
algorithms must agree with the single-shot couplings.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import ALGORITHMS, SolverConfig, solve_coupled
from repro.utils.errors import ConfigurationError, MemoryLimitExceeded

UNCOMPRESSED = SolverConfig(dense_backend="spido", n_c=96, n_b=2)
COMPRESSED = SolverConfig(dense_backend="hmat", n_c=96, n_s_block=256, n_b=2)


class TestAccuracy:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_uncompressed_variants_accurate(self, pipe_medium, algorithm):
        sol = solve_coupled(pipe_medium, algorithm, UNCOMPRESSED)
        # uncompressed dense part: only BLR (eps=1e-3) limits accuracy
        assert sol.relative_error < 1e-3

    @pytest.mark.parametrize("algorithm",
                             ["multi_solve", "multi_factorization"])
    def test_compressed_variants_below_epsilon(self, pipe_medium, algorithm):
        sol = solve_coupled(pipe_medium, algorithm, COMPRESSED)
        assert sol.relative_error < COMPRESSED.epsilon  # the Fig. 11 claim

    def test_all_algorithms_agree(self, pipe_medium):
        solutions = [
            solve_coupled(pipe_medium, algo, UNCOMPRESSED).x
            for algo in sorted(ALGORITHMS)
        ]
        for other in solutions[1:]:
            np.testing.assert_allclose(solutions[0], other, atol=1e-4)

    def test_residual_small(self, pipe_medium):
        sol = solve_coupled(pipe_medium, "multi_solve", COMPRESSED)
        assert pipe_medium.residual_norm(sol.x_v, sol.x_s) < 1e-3


class TestCompressionEffects:
    def test_compressed_schur_is_smaller(self, pipe_medium):
        dense = solve_coupled(pipe_medium, "multi_solve", UNCOMPRESSED)
        comp = solve_coupled(pipe_medium, "multi_solve", COMPRESSED)
        assert comp.stats.schur_bytes < dense.stats.schur_bytes
        assert comp.stats.schur_compression_ratio < 0.9
        assert dense.stats.schur_compression_ratio == pytest.approx(1.0)

    def test_tighter_epsilon_more_accurate_more_memory(self, pipe_medium):
        loose = solve_coupled(pipe_medium, "multi_solve",
                              COMPRESSED.with_(epsilon=1e-2))
        tight = solve_coupled(pipe_medium, "multi_solve",
                              COMPRESSED.with_(epsilon=1e-5))
        assert tight.relative_error < loose.relative_error
        assert tight.stats.schur_bytes > loose.stats.schur_bytes


class TestAlgorithmStructure:
    def test_multi_factorization_counts_nb_squared(self, pipe_small,
                                                   aircraft_small):
        """``n_b²`` blocks as in the paper, except on a symmetric system:
        ``X_ji = X_ijᵀ``, so one triangle of ``n_b(n_b+1)/2`` suffices."""
        unsymmetric_view = dataclasses.replace(pipe_small, symmetric=False)
        for n_b in (1, 2, 3):
            config = UNCOMPRESSED.with_(n_b=n_b)
            counts = {
                name: solve_coupled(problem, "multi_factorization",
                                    config).stats.n_sparse_factorizations
                for name, problem in (("pipe", pipe_small),
                                      ("view", unsymmetric_view),
                                      ("aircraft", aircraft_small))
            }
            assert counts == {"pipe": n_b * (n_b + 1) // 2,
                              "view": n_b * n_b, "aircraft": n_b * n_b}

    def test_multi_solve_single_factorization(self, pipe_small):
        sol = solve_coupled(pipe_small, "multi_solve", UNCOMPRESSED)
        assert sol.stats.n_sparse_factorizations == 1

    def test_multi_solve_block_count(self, pipe_small):
        n_c = 64
        sol = solve_coupled(pipe_small, "multi_solve",
                            UNCOMPRESSED.with_(n_c=n_c))
        import math
        expected = math.ceil(pipe_small.n_bem / n_c)
        # +2 solves for the right-hand-side reduction
        assert sol.stats.n_sparse_solves == expected + 2

    def test_phases_reported(self, pipe_small):
        sol = solve_coupled(pipe_small, "multi_solve", COMPRESSED)
        phases = sol.stats.phases
        for key in ("sparse_factorization", "sparse_solve", "spmm",
                    "schur_compression", "dense_factorization"):
            assert phases.get(key, 0.0) > 0.0, key

    def test_stats_dimensions(self, pipe_small):
        sol = solve_coupled(pipe_small, "advanced", UNCOMPRESSED)
        s = sol.stats
        assert s.n_total == pipe_small.n_total
        assert s.n_fem == pipe_small.n_fem
        assert s.n_bem == pipe_small.n_bem
        assert s.peak_bytes > 0
        assert s.sparse_factor_bytes > 0

    def test_nc_does_not_change_result(self, pipe_small):
        a = solve_coupled(pipe_small, "multi_solve",
                          UNCOMPRESSED.with_(n_c=32))
        b = solve_coupled(pipe_small, "multi_solve",
                          UNCOMPRESSED.with_(n_c=999_999))
        np.testing.assert_allclose(a.x, b.x, atol=1e-8)

    def test_nb_does_not_change_result(self, pipe_small):
        a = solve_coupled(pipe_small, "multi_factorization",
                          UNCOMPRESSED.with_(n_b=1))
        b = solve_coupled(pipe_small, "multi_factorization",
                          UNCOMPRESSED.with_(n_b=4))
        np.testing.assert_allclose(a.x, b.x, atol=1e-8)

    def test_baseline_peak_dominates_multi_solve(self, pipe_medium):
        """The whole point of multi-solve: shed the huge solve panel.

        Compared at n_workers=1: the structural claim is about the
        algorithms, and a parallel lane ($REPRO_N_WORKERS=4) legitimately
        holds several panels live at once, inflating the multi-solve peak.
        """
        config = UNCOMPRESSED.with_(n_workers=1)
        base = solve_coupled(pipe_medium, "baseline", config)
        ms = solve_coupled(pipe_medium, "multi_solve", config)
        assert base.stats.peak_bytes > ms.stats.peak_bytes


class TestErrorsAndLimits:
    def test_unknown_algorithm_rejected(self, pipe_small):
        with pytest.raises(ConfigurationError):
            solve_coupled(pipe_small, "magic")

    def test_baseline_rejects_hmat_backend(self, pipe_small):
        with pytest.raises(ConfigurationError):
            solve_coupled(pipe_small, "baseline", COMPRESSED)

    def test_advanced_rejects_hmat_backend(self, pipe_small):
        with pytest.raises(ConfigurationError):
            solve_coupled(pipe_small, "advanced", COMPRESSED)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_memory_limit_triggers_oom(self, pipe_small, algorithm):
        config = UNCOMPRESSED.with_(memory_limit=100_000)
        with pytest.raises(MemoryLimitExceeded):
            solve_coupled(pipe_small, algorithm, config)

    def test_generous_limit_allows_run(self, pipe_small):
        config = UNCOMPRESSED.with_(memory_limit=4 * 1024**3)
        sol = solve_coupled(pipe_small, "multi_solve", config)
        assert sol.relative_error < 1e-3
