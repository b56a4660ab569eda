"""Scaling of the parallel panel runtime (multi-core Schur assembly).

The multi-solve panel solves and the multi-factorization block
factorizations are mutually independent, so they scale with
``SolverConfig.n_workers`` on a multi-core machine.  This bench sweeps
the worker count *and the execution backend* (``thread`` vs ``process``)
on a fixed problem and records wall-clock time, the runtime window
(coordinator wall time inside the parallel assembly — the quantity that
actually shrinks with workers), worker time (phase totals, which sum
across workers and therefore stay flat), scheduler wait and peak memory.

The thread backend relies on NumPy/SciPy kernels releasing the GIL, so
its scaling degrades when the pure-Python share of a task grows; the
process backend runs kernels in worker processes (shared-memory result
slabs, coordinator-side accounting) and is the one held to the ≥3×
assembly-speedup acceptance target.

On a single-core container the sweep degenerates to overhead measurement
— the speedup assertions are gated on :func:`os.cpu_count` — but
bit-identity of the solutions across all backends and worker counts, and
boundedness of the tracked peak, are asserted unconditionally.
"""

import os
import time

import numpy as np

from repro.core import SolverConfig, solve_coupled
from repro.memory.tracker import fmt_bytes
from repro.runner.reporting import render_table, render_worker_breakdown

from bench_utils import bench_scale, write_bench_json, write_result

WORKER_COUNTS = (1, 2, 4)
BACKENDS = ("thread", "process")


def _timed_solve(problem, algorithm, config):
    t0 = time.perf_counter()
    sol = solve_coupled(problem, algorithm, config)
    return sol, time.perf_counter() - t0


def _sweep(problem, algorithm, config, backend, reference, rows, records):
    """Sweep worker counts for one (algorithm, backend) pair.

    Returns ``{n_workers: (wall, runtime_wall)}``; asserts every solution
    is bit-identical to ``reference`` (the serial thread run).
    """
    out = {}
    for n_workers in WORKER_COUNTS:
        sol, wall = _timed_solve(
            problem, algorithm,
            config.with_(n_workers=n_workers, runtime_backend=backend),
        )
        # the ordered reduction makes every backend/width bit-identical
        assert np.array_equal(reference.x, sol.x)
        runtime_wall = sol.stats.runtime_wall_seconds
        out[n_workers] = (wall, runtime_wall)
        worker_time = sum(
            sol.stats.phases.get(name, 0.0)
            for name in ("sparse_solve", "spmm", "schur_assembly",
                         "schur_compression", "sparse_factorization_schur")
        )
        base_runtime_wall = out[1][1]
        rows.append((
            algorithm, backend, n_workers, f"{wall:.2f}s",
            f"{out[1][0] / wall:.2f}x",
            f"{runtime_wall:.2f}s",
            f"{base_runtime_wall / max(runtime_wall, 1e-9):.2f}x",
            f"{sol.stats.scheduler_wait_seconds:.3f}s",
            fmt_bytes(sol.stats.peak_bytes),
        ))
        records.append({
            "algorithm": algorithm,
            "backend": backend,
            "n_workers": n_workers,
            "wall_seconds": wall,
            "speedup": out[1][0] / wall,
            "runtime_wall_seconds": runtime_wall,
            "assembly_speedup": base_runtime_wall / max(runtime_wall, 1e-9),
            "worker_seconds": worker_time,
            "scheduler_wait_seconds": sol.stats.scheduler_wait_seconds,
            "peak_bytes": sol.stats.peak_bytes,
            "phases": sol.stats.phases,
        })
    return out


def test_runtime_scaling(benchmark, pipe_8k):
    config = SolverConfig(n_c=64, n_b=2)
    rows, records = [], []
    sweeps = {}
    for algorithm in ("multi_solve", "multi_factorization"):
        reference, _ = _timed_solve(
            pipe_8k, algorithm,
            config.with_(n_workers=1, runtime_backend="thread"),
        )
        for backend in BACKENDS:
            sweeps[algorithm, backend] = _sweep(
                pipe_8k, algorithm, config, backend, reference,
                rows, records,
            )
    write_result(
        "runtime_scaling",
        render_table(
            ["algorithm", "backend", "n_workers", "wall", "speedup",
             "runtime window", "assembly speedup", "sched wait", "peak mem"],
            rows,
            title=f"Parallel panel runtime scaling "
                  f"(pipe N={pipe_8k.n_total:,}, "
                  f"{os.cpu_count()} cores available)",
        ),
    )
    write_bench_json("runtime_scaling", {
        "case": {
            "n_total": pipe_8k.n_total,
            "n_b": config.n_b,
            "n_c": config.n_c,
            "bench_scale": bench_scale(),
            "cpu_count": os.cpu_count(),
        },
        "worker_counts": list(WORKER_COUNTS),
        "backends": list(BACKENDS),
        "runs": records,
    })
    if (os.cpu_count() or 1) >= 4 and bench_scale() >= 1.0:
        # acceptance targets, on a machine that actually has the cores
        # (skipped on CI's scaled-down smoke case, where overhead wins):
        # 4 thread workers at least halve the multi-solve wall time...
        ms_thread = sweeps["multi_solve", "thread"]
        assert ms_thread[4][0] <= ms_thread[1][0] / 2.0
        # ...and the process backend speeds the parallel assembly window
        # (coordinator wall inside the runtime) up >= 3x at 4 workers
        ms_process = sweeps["multi_solve", "process"]
        assert ms_process[4][1] <= ms_process[1][1] / 3.0
    benchmark.pedantic(
        solve_coupled,
        args=(pipe_8k, "multi_solve", config.with_(n_workers=WORKER_COUNTS[-1])),
        rounds=1, iterations=1,
    )


def test_runtime_breakdown_under_tight_limit(pipe_4k):
    """Admission control under a limit barely above the serial peak: the
    run must complete (blocking, not raising) with the peak within the
    limit, and the per-worker breakdown shows where the time went."""
    config = SolverConfig(n_c=64)
    serial = solve_coupled(pipe_4k, "multi_solve", config.with_(n_workers=1))
    limit = int(serial.stats.peak_bytes * 1.02)
    sol = solve_coupled(
        pipe_4k, "multi_solve",
        config.with_(n_workers=4, memory_limit=limit),
    )
    assert np.array_equal(serial.x, sol.x)
    assert sol.stats.peak_bytes <= limit
    write_result(
        "runtime_breakdown_tight_limit",
        render_worker_breakdown(sol.stats)
        + f"\npeak {fmt_bytes(sol.stats.peak_bytes)}"
          f" <= limit {fmt_bytes(limit)}",
    )


def test_process_backend_breakdown(pipe_4k):
    """One process-backend run at 4 workers: record the per-process phase
    breakdown (worker-N rows plus the coordinator's admission waits)."""
    config = SolverConfig(n_c=64)
    serial = solve_coupled(pipe_4k, "multi_solve", config.with_(n_workers=1))
    sol = solve_coupled(
        pipe_4k, "multi_solve",
        config.with_(n_workers=4, runtime_backend="process"),
    )
    assert np.array_equal(serial.x, sol.x)
    write_result(
        "runtime_breakdown_process_backend",
        render_worker_breakdown(sol.stats)
        + f"\npeak {fmt_bytes(sol.stats.peak_bytes)}",
    )
