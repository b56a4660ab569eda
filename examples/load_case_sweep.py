#!/usr/bin/env python
"""Acoustic load-case sweep: factorize once, solve many right-hand sides.

A production aero-acoustic study evaluates many excitations (engine
harmonics, source positions) against the same aircraft at the same
frequency — many right-hand sides against one coupled factorization.
This example builds the compressed multi-solve factorization once with
:class:`repro.core.CoupledFactorization` and sweeps a family of synthetic
monopole excitations through it, comparing against the naive
re-factorize-per-case loop.

Run:  python examples/load_case_sweep.py [N] [n_cases]
"""

import sys
import time

import numpy as np

from repro import (
    CoupledFactorization,
    SolverConfig,
    fmt_bytes,
    generate_pipe_case,
)


def monopole_rhs(problem, source, amplitude=1.0):
    """Right-hand side of a monopole source at ``source`` (decaying 1/r)."""
    def field(points):
        r = np.linalg.norm(points - source, axis=1)
        return amplitude / (1.0 + r)

    return field(problem.coords_v), field(problem.coords_s)


def main() -> None:
    n_total = int(sys.argv[1]) if len(sys.argv) > 1 else 6_000
    n_cases = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    problem = generate_pipe_case(n_total)
    config = SolverConfig(dense_backend="hmat", n_c=128, n_s_block=512)
    rng = np.random.default_rng(0)
    span = problem.coords_v.max(axis=0)
    sources = rng.uniform(0.2, 0.8, size=(n_cases, 3)) * span

    print(
        f"Sweeping {n_cases} monopole load cases over the pipe system "
        f"N = {n_total:,}\n"
    )

    # factorize once, stream the load cases through
    t0 = time.perf_counter()
    with CoupledFactorization(problem, "multi_solve", config) as fact:
        t_factor = time.perf_counter() - t0
        t0 = time.perf_counter()
        results = []
        for source in sources:
            b_v, b_s = monopole_rhs(problem, source)
            x_v, x_s = fact.solve(b_v, b_s, refinement_steps=1)
            # report the mean surface response (a scalar observable)
            results.append(float(np.abs(x_s).mean()))
        t_solves = time.perf_counter() - t0
        peak = fact.peak_bytes
    print(
        f"factorize once + {n_cases} solves: "
        f"{t_factor:.2f}s + {t_solves:.2f}s "
        f"(peak {fmt_bytes(peak)})"
    )

    # the naive alternative: factorize again for every case
    t0 = time.perf_counter()
    with CoupledFactorization(problem, "multi_solve", config) as fact:
        fact.solve(problem.b_v, problem.b_s, refinement_steps=1)
    t_one = time.perf_counter() - t0
    print(
        f"naive re-factorization per case would cost ≈ "
        f"{n_cases} × {t_one:.2f}s = {n_cases * t_one:.2f}s "
        f"({n_cases * t_one / max(t_factor + t_solves, 1e-9):.1f}x slower)"
    )

    print("\nmean |surface response| per source:")
    for source, value in zip(sources, results):
        print(f"  source at ({source[0]:6.1f}, {source[1]:5.1f}, "
              f"{source[2]:5.1f}) -> {value:.4f}")


if __name__ == "__main__":
    main()
