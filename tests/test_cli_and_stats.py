"""Tests for the CLI entry point and the factorization statistics."""

import os
import time

import pytest

from repro.core import SolverConfig, solve_coupled
from repro.core.config import DENSE_BACKENDS
from repro.runner.__main__ import main as runner_main
from repro.sparse import BLRConfig, SparseSolver


def _factorize(solver, problem, **kwargs):
    """Analyse and factorize ``problem.a_vv``."""
    analysis = solver.analyse(problem.a_vv, problem.coords_v)
    return solver.factorize(analysis, problem.a_vv, **kwargs)


class TestStatistics:
    def test_fields_present_and_consistent(self, pipe_small):
        f = _factorize(SparseSolver(), pipe_small, symmetric_values=True)
        stats = f.statistics()
        assert stats["mode"] == "ldlt"
        assert stats["n_fronts"] >= 1
        assert stats["peak_front_size"] >= 1
        assert stats["factor_entries"] > pipe_small.a_vv.nnz / 2
        assert stats["factor_bytes"] == f.factor_bytes
        assert stats["flops_estimate"] > 0
        f.free()

    def test_lu_mode_reported(self, aircraft_small):
        f = _factorize(SparseSolver(), aircraft_small,
                       symmetric_values=False)
        assert f.statistics()["mode"] == "lu"
        f.free()

    def test_blr_panel_counts(self, pipe_small):
        f = _factorize(SparseSolver(
            blr=BLRConfig(tol=1e-1, min_panel=16, max_rank_fraction=1.0)
        ), pipe_small, symmetric_values=True)
        stats = f.statistics()
        assert (0 < stats["blr_compressed_panels"]
                <= stats["blr_tested_panels"] <= stats["blr_total_panels"])
        f.free()
        # a front with fewer than min_panel pivots is stored, never tested
        assert stats["blr_tested_panels"] < stats["blr_total_panels"]
        off = _factorize(SparseSolver(), pipe_small, symmetric_values=True)
        assert off.statistics()["blr_tested_panels"] == 0
        off.free()

    def test_flops_grow_with_problem_size(self):
        from repro.fembem import generate_pipe_case
        small = generate_pipe_case(1_000)
        big = generate_pipe_case(3_000)
        fs = _factorize(SparseSolver(), small, symmetric_values=True)
        fb = _factorize(SparseSolver(), big, symmetric_values=True)
        assert fb.statistics()["flops_estimate"] > (
            2 * fs.statistics()["flops_estimate"]
        )
        fs.free()
        fb.free()

    def test_total_time_is_the_run_wall_clock(self, pipe_small):
        """``total_time`` is the run's wall clock, not the phase sum: the
        sparse analysis / numeric phases nest inside the factorization
        phase and two workers add up worker time."""
        t0 = time.perf_counter()
        sol = solve_coupled(pipe_small, "multi_factorization",
                            SolverConfig(n_b=2, n_workers=2))
        wall = time.perf_counter() - t0
        total = sol.stats.total_time
        assert 0.8 * wall <= total <= wall
        assert sum(sol.stats.phases.values()) > total


class TestCli:
    def test_table1(self, capsys):
        assert runner_main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "n_BEM" in out and "paper" in out

    def test_global_flags_leave_the_environment_alone(self, capsys):
        """The flags reach the run through ``os.environ``; an in-process
        caller must get its own defaults back."""
        before = dict(os.environ)
        assert runner_main(["--n-workers", "2", "table1"]) == 0
        assert dict(os.environ) == before

    def test_fig12_small(self, capsys):
        assert runner_main(["fig12", "--n-total", "1200"]) == 0
        out = capsys.readouterr().out
        assert "n_S" in out

    def test_fig13_small(self, capsys):
        assert runner_main(["fig13", "--n-total", "1200"]) == 0
        out = capsys.readouterr().out
        assert "factorizations" in out

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            runner_main(["nonsense"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            runner_main([])

    @pytest.mark.parametrize("backend", DENSE_BACKENDS)
    def test_serve_starts_with_every_advertised_dense_backend(
            self, backend, monkeypatch):
        """``serve --dense-backend`` offers exactly what ``SolverConfig``
        validates: every choice must reach the server start-up."""
        started = {}

        async def fake_run_server(config, socket_path=None,
                                  cache_budget=None):
            started["config"] = config

        monkeypatch.setattr("repro.serving.run_server", fake_run_server)
        assert runner_main(["serve", "--dense-backend", backend,
                            "--socket", "unused.sock"]) == 0
        assert started["config"].dense_backend == backend

    def test_serve_rejects_unknown_dense_backend(self):
        with pytest.raises(SystemExit):
            runner_main(["serve", "--dense-backend", "dense"])

    def test_serve_rejects_non_positive_cache_budget(self):
        with pytest.raises(SystemExit):
            runner_main(["serve", "--cache-budget", "0"])
