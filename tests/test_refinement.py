"""Tests for iterative refinement on the coupled solve.

Refinement belongs to a solve, not to a factorization: it is asked for
per call, ``CoupledFactorization.solve(b_v, b_s, refinement_steps=k)``.
"""

import pytest

from repro.core import CoupledFactorization, SolverConfig
from repro.utils.errors import ConfigurationError

LOOSE = SolverConfig(dense_backend="hmat", epsilon=1e-2, n_c=96,
                     n_s_block=256)


def _refined(problem, algorithm, config, steps):
    """``(relative error, stats)`` of one solve with ``steps`` rounds."""
    with CoupledFactorization(problem, algorithm, config) as fact:
        x_v, x_s = fact.solve(problem.b_v, problem.b_s,
                              refinement_steps=steps)
        return problem.relative_error(x_v, x_s), fact.stats


class TestIterativeRefinement:
    def test_each_step_reduces_error(self, pipe_medium):
        with CoupledFactorization(pipe_medium, "multi_solve", LOOSE) as fact:
            errors = [
                pipe_medium.relative_error(*fact.solve(
                    pipe_medium.b_v, pipe_medium.b_s, refinement_steps=steps
                ))
                for steps in (0, 1, 2)
            ]
        assert errors[1] < 0.2 * errors[0]
        assert errors[2] < 0.2 * errors[1]

    def test_loose_compression_plus_refinement_beats_tight(self, pipe_medium):
        """ε=1e-2 storage with 2 IR steps reaches ε=1e-4-class accuracy."""
        loose_err, loose_stats = _refined(pipe_medium, "multi_solve", LOOSE, 2)
        tight_err, tight_stats = _refined(
            pipe_medium, "multi_solve", LOOSE.with_(epsilon=1e-4), 0
        )
        assert loose_err < tight_err
        assert loose_stats.schur_bytes < tight_stats.schur_bytes

    def test_refinement_phase_timed(self, pipe_small):
        _, stats = _refined(pipe_small, "multi_solve", LOOSE, 1)
        assert stats.phases.get("iterative_refinement", 0) >= 0
        assert "iterative_refinement" in stats.phases

    def test_works_for_multi_factorization(self, pipe_small):
        err, _ = _refined(pipe_small, "multi_factorization",
                          LOOSE.with_(n_b=2), 2)
        assert err < 1e-4

    def test_works_on_exact_factorization(self, pipe_small):
        """Refinement on an (almost) exact solve is a harmless no-op."""
        base = SolverConfig(sparse_compression=False)
        plain, _ = _refined(pipe_small, "advanced", base, 0)
        refined, _ = _refined(pipe_small, "advanced", base, 1)
        assert refined <= plain * 10 + 1e-14

    def test_complex_nonsymmetric(self, aircraft_small):
        err, _ = _refined(aircraft_small, "multi_solve",
                          SolverConfig(dense_backend="hmat", epsilon=1e-3), 2)
        assert err < 1e-6

    def test_negative_steps_rejected(self, pipe_small):
        with CoupledFactorization(pipe_small, "multi_solve", LOOSE) as fact:
            with pytest.raises(ConfigurationError):
                fact.solve(pipe_small.b_v, pipe_small.b_s,
                           refinement_steps=-1)

    def test_solve_count_grows_with_steps(self, pipe_small):
        _, a = _refined(pipe_small, "multi_solve", LOOSE, 0)
        _, b = _refined(pipe_small, "multi_solve", LOOSE, 2)
        assert b.n_sparse_solves == a.n_sparse_solves + 4
