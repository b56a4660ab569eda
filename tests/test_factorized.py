"""Tests for the reusable CoupledFactorization (factor once, solve many)."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.core import CoupledFactorization, SolverConfig, solve_coupled
from repro.utils.errors import ConfigurationError, FactorizationFreed


@pytest.fixture(scope="module", params=["spido", "hmat", "spido_ooc"])
def fact(request, pipe_medium):
    f = CoupledFactorization(
        pipe_medium, "multi_solve",
        SolverConfig(dense_backend=request.param, n_c=96, n_s_block=256),
    )
    yield f
    f.free()


class TestSolve:
    def test_matches_one_shot_solve(self, pipe_medium, fact):
        x_v, x_s = fact.solve(pipe_medium.b_v, pipe_medium.b_s)
        assert pipe_medium.relative_error(x_v, x_s) < 1e-3

    def test_linearity_across_load_cases(self, pipe_medium, fact):
        x_v, x_s = fact.solve(pipe_medium.b_v, pipe_medium.b_s)
        y_v, y_s = fact.solve(-2 * pipe_medium.b_v, -2 * pipe_medium.b_s)
        np.testing.assert_allclose(y_v, -2 * x_v, atol=1e-8)
        np.testing.assert_allclose(y_s, -2 * x_s, atol=1e-8)

    def test_block_of_load_cases(self, pipe_medium, fact):
        b_v = np.stack([pipe_medium.b_v, 0.5 * pipe_medium.b_v], axis=1)
        b_s = np.stack([pipe_medium.b_s, 0.5 * pipe_medium.b_s], axis=1)
        x_v, x_s = fact.solve(b_v, b_s)
        assert x_v.shape == (pipe_medium.n_fem, 2)
        np.testing.assert_allclose(x_v[:, 1], 0.5 * x_v[:, 0], atol=1e-8)

    def test_per_call_refinement(self, pipe_medium):
        f = CoupledFactorization(
            pipe_medium, "multi_solve",
            SolverConfig(dense_backend="hmat", epsilon=1e-2),
        )
        plain_v, plain_s = f.solve(pipe_medium.b_v, pipe_medium.b_s)
        refined_v, refined_s = f.solve(pipe_medium.b_v, pipe_medium.b_s,
                                       refinement_steps=2)
        assert pipe_medium.relative_error(refined_v, refined_s) < (
            0.01 * pipe_medium.relative_error(plain_v, plain_s)
        )
        f.free()

    def test_solve_counter(self, pipe_medium, fact):
        before = fact.n_solves
        fact.solve(pipe_medium.b_v, pipe_medium.b_s)
        assert fact.n_solves == before + 1


class TestAlgorithms:
    @pytest.mark.parametrize("algorithm", [
        "baseline", "advanced", "multi_solve", "multi_factorization",
    ])
    def test_every_algorithm_builds(self, pipe_small, algorithm):
        with CoupledFactorization(pipe_small, algorithm,
                                  SolverConfig(n_c=64, n_b=2)) as f:
            x_v, x_s = f.solve(pipe_small.b_v, pipe_small.b_s)
            assert pipe_small.relative_error(x_v, x_s) < 1e-3

    def test_matches_solve_coupled(self, pipe_small):
        config = SolverConfig(n_c=64)
        one_shot = solve_coupled(pipe_small, "multi_solve", config)
        with CoupledFactorization(pipe_small, "multi_solve", config) as f:
            x_v, x_s = f.solve(pipe_small.b_v, pipe_small.b_s)
        np.testing.assert_allclose(np.concatenate([x_v, x_s]), one_shot.x,
                                   atol=1e-10)

    def test_complex_case(self, aircraft_small):
        with CoupledFactorization(
            aircraft_small, "multi_factorization",
            SolverConfig(n_b=2, epsilon=1e-4),
        ) as f:
            x_v, x_s = f.solve(aircraft_small.b_v, aircraft_small.b_s)
            assert aircraft_small.relative_error(x_v, x_s) < 1e-4


class TestLifecycleAndErrors:
    def test_unknown_algorithm_rejected(self, pipe_small):
        with pytest.raises(ConfigurationError):
            CoupledFactorization(pipe_small, "cg")

    def test_shape_mismatch_rejected(self, pipe_medium, fact):
        with pytest.raises(ConfigurationError):
            fact.solve(np.zeros(3), pipe_medium.b_s)
        with pytest.raises(ConfigurationError):
            fact.solve(pipe_medium.b_v, np.zeros(3))

    def test_solve_after_free_raises(self, pipe_small):
        f = CoupledFactorization(pipe_small, "multi_solve",
                                 SolverConfig(n_c=64))
        f.free()
        with pytest.raises(FactorizationFreed):
            f.solve(pipe_small.b_v, pipe_small.b_s)

    def test_free_releases_tracked_memory(self, pipe_small):
        f = CoupledFactorization(pipe_small, "multi_solve",
                                 SolverConfig(n_c=64))
        tracker = f._ctx.tracker
        assert tracker.in_use > 0
        f.free()
        tracker.assert_all_freed()

    def test_stats_snapshot(self, pipe_medium, fact):
        s = fact.stats
        assert s.n_total == pipe_medium.n_total
        assert s.peak_bytes > 0
        assert "sparse_factorization" in s.phases

    @pytest.mark.parametrize("backend", ["spido", "hmat", "spido_ooc"])
    def test_stats_and_stored_bytes_survive_free(self, pipe_small, backend):
        f = CoupledFactorization(pipe_small, "multi_solve",
                                 SolverConfig(dense_backend=backend, n_c=64))
        stats, stored = f.stats, f.stored_bytes
        f.free()
        assert f.stored_bytes == stored
        # everything but the wall clock, which keeps running
        assert dataclasses.replace(
            f.stats, total_time=stats.total_time) == stats


class TestSpidoStoresSOnce:
    """The dense ``S`` is factored in its own buffer: its ``schur_store``
    charge is the factor's only one, so what the factorization reports as
    stored is what its tracker holds."""

    @pytest.mark.parametrize("algorithm",
                             ["multi_solve", "multi_factorization"])
    def test_no_dense_factor_and_stored_bytes_truthful(self, aircraft_small,
                                                       algorithm):
        problem = aircraft_small
        f = CoupledFactorization(problem, algorithm,
                                 SolverConfig(dense_backend="spido", n_c=64))
        peaks = f.stats.peak_by_category
        s_bytes = problem.n_bem ** 2 * np.dtype(problem.dtype).itemsize
        assert "dense_factor" not in peaks
        assert peaks["schur_store"] == s_bytes
        assert f.stored_bytes == s_bytes + peaks["sparse_factor"]
        assert f._ctx.tracker.in_use == f.stored_bytes
        f.free()

    @pytest.mark.parametrize("case,algorithm,backend", [
        pytest.param(case, algorithm, backend,
                     id="-".join([case] + ([] if tag == "" else [tag])))
        for algorithm, backend, tag in [
            ("multi_solve", "spido", ""),
            ("multi_solve", "hmat", "hmat"),
            ("multi_factorization", "spido", "mf"),
            ("multi_factorization", "hmat", "mf-hmat"),
        ]
        for case in ("aircraft_small", "pipe_small")
    ])
    def test_memory_model_bounds_the_multi_solve_peak(self, request, case,
                                                      algorithm, backend):
        """``CouplingMemoryModel``'s prediction is an upper bound of the
        tracked peak, its panels and blocks in flight those of the run's
        worker count and its coefficients fitted on a one-worker run of
        the same case — the sparse factor, the compressed ``S`` (its mean
        rank) and one factorization+Schur call's workspace — so a wrong
        in-flight count is not absorbed by the fit."""
        from repro.memory.model import CouplingMemoryModel, ProblemDims

        problem = request.getfixturevalue(case)
        config = SolverConfig(dense_backend=backend, n_c=64)

        def run(n_workers):
            f = CoupledFactorization(
                problem, algorithm,
                dataclasses.replace(config, n_workers=n_workers))
            stats = f.stats
            f.free()
            return stats

        n_workers = config.effective_n_workers
        stats = run(n_workers)
        peaks = (stats if n_workers == 1 else run(1)).peak_by_category
        itemsize = np.dtype(problem.dtype).itemsize
        block = -(-problem.n_bem // config.n_b)
        model = CouplingMemoryModel(
            itemsize=itemsize,
            symmetric=problem.symmetric,
            schur_workspace_factor=(
                (peaks["front_arena"] + peaks["update_stack"])
                / (block * block * itemsize)),
        )
        samples = {"factor_samples": [(problem.n_fem, peaks["sparse_factor"])]}
        if backend == "hmat":
            samples["hodlr_samples"] = [(problem.n_bem, peaks["schur_store"])]
        predicted = model.calibrated(**samples).peak_bytes(
            stats.algorithm,
            ProblemDims(problem.n_total, problem.n_fem, problem.n_bem),
            n_c=config.n_c, n_b=config.n_b, n_s_block=config.n_s_block,
            n_workers=n_workers)
        assert stats.peak_bytes <= predicted


class TestConcurrency:
    """The PR-8 serving contract: concurrent solve() + idempotent free().

    A solve racing an eviction-driven free() must either complete
    against live factors or raise FactorizationFreed — never read freed
    state or double-release tracker charges.  The module-level watchdog
    fixture verifies lock ordering and tracker balance around each test.
    """

    def test_free_is_idempotent(self, pipe_small):
        f = CoupledFactorization(pipe_small, "multi_solve",
                                 SolverConfig(n_c=64))
        tracker = f._ctx.tracker
        f.free()
        f.free()
        f.free()
        assert f.freed
        tracker.assert_all_freed()

    def test_solve_after_free_raises_typed(self, pipe_small):
        f = CoupledFactorization(pipe_small, "multi_solve",
                                 SolverConfig(n_c=64))
        f.free()
        with pytest.raises(FactorizationFreed):
            f.solve(pipe_small.b_v, pipe_small.b_s)

    def test_concurrent_solves_agree(self, pipe_small):
        f = CoupledFactorization(pipe_small, "multi_solve",
                                 SolverConfig(n_c=64))
        reference = f.solve(pipe_small.b_v, pipe_small.b_s)
        results = [None] * 8
        errors = []

        def worker(i):
            try:
                results[i] = f.solve(pipe_small.b_v, pipe_small.b_s)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for x_v, x_s in results:
            np.testing.assert_array_equal(x_v, reference[0])
            np.testing.assert_array_equal(x_s, reference[1])
        f.free()

    def test_concurrent_solves_count_every_sparse_solve(self, pipe_small):
        """Each coupled solve makes two sparse solves, and threads solving
        one factorization at once lose none of them from the count."""
        f = CoupledFactorization(pipe_small, "multi_solve",
                                 SolverConfig(n_c=64))
        assembly = f.stats.n_sparse_solves
        n_threads, per_thread = 8, 4
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker():
            try:
                barrier.wait()
                for _ in range(per_thread):
                    f.solve(pipe_small.b_v, pipe_small.b_s)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the += too
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert f.stats.n_sparse_solves == (
            assembly + 2 * n_threads * per_thread)
        f.free()

    def test_free_defers_until_solves_drain(self, pipe_small):
        """free() during active solves: they complete, release is deferred."""
        f = CoupledFactorization(pipe_small, "multi_solve",
                                 SolverConfig(n_c=64))
        tracker = f._ctx.tracker
        started = threading.Barrier(4 + 1)
        results = []
        errors = []

        def worker():
            started.wait()
            try:
                results.append(f.solve(pipe_small.b_v, pipe_small.b_s))
            except FactorizationFreed:
                pass  # acceptable: free won the begin-solve race
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        started.wait()
        f.free()  # races the in-flight solves
        for t in threads:
            t.join()
        assert not errors
        assert f.freed
        for x_v, x_s in results:
            assert pipe_small.relative_error(x_v, x_s) < 1e-3
        # whatever mix of completed/refused solves occurred, the deferred
        # release ran exactly once and the balance is zero
        tracker.assert_all_freed()
        with pytest.raises(FactorizationFreed):
            f.solve(pipe_small.b_v, pipe_small.b_s)

    def test_solve_free_hammer(self, pipe_small):
        """Many rounds of solve threads racing a freeing thread."""
        for _ in range(5):
            f = CoupledFactorization(pipe_small, "multi_solve",
                                     SolverConfig(n_c=64))
            tracker = f._ctx.tracker
            go = threading.Barrier(3 + 1)
            errors = []

            def solver(fact=f, barrier=go):
                barrier.wait()
                for _ in range(3):
                    try:
                        fact.solve(pipe_small.b_v, pipe_small.b_s)
                    except FactorizationFreed:
                        return
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=solver) for _ in range(3)]
            for t in threads:
                t.start()
            go.wait()
            f.free()
            for t in threads:
                t.join()
            assert not errors
            tracker.assert_all_freed()


class TestSolveIsReadOnlyOnTheFactors:
    """The in-place sweeps write to per-call buffers only: load cases
    solved from several threads, or twice, come back bit for bit."""

    @pytest.mark.parametrize("backend", ["hmat", "spido"])
    def test_four_threads_match_serial_bitwise(self, pipe_small, backend):
        f = CoupledFactorization(pipe_small, "multi_solve",
                                 SolverConfig(dense_backend=backend, n_c=64))
        rng = np.random.default_rng(5)
        cases = [(rng.standard_normal((pipe_small.n_fem, k)),
                  rng.standard_normal((pipe_small.n_bem, k)))
                 for k in (1, 1, 3, 7)]
        cases[0] = (cases[0][0][:, 0], cases[0][1][:, 0])   # a 1-D case
        serial = [f.solve(b_v, b_s) for b_v, b_s in cases]
        again = f.solve(*cases[2])                # a repeated load case
        np.testing.assert_array_equal(again[0], serial[2][0])
        np.testing.assert_array_equal(again[1], serial[2][1])
        results = [None] * len(cases)
        errors = []

        def worker(i):
            try:
                for _ in range(3):
                    results[i] = f.solve(*cases[i])
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for (x_v, x_s), (r_v, r_s) in zip(results, serial):
            np.testing.assert_array_equal(x_v, r_v)
            np.testing.assert_array_equal(x_s, r_s)
        f.free()
        f._ctx.tracker.assert_all_freed()
