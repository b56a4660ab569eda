"""Ablation: the cost of multi-factorization's superfluous refactorizations.

"Due to a limitation in the API of the sparse direct solver, the sparse
factorization+Schur step involving W implies a re-factorization of A_vv at
each iteration, although it does not change during the computation — hence
the name of the method" (§IV-B1).  This bench isolates that overhead by
comparing the measured multi-factorization time against an oracle that
pays the factorization exactly once (the per-block Schur work plus a
single factorization) — i.e. what a Schur API able to reuse factors would
cost.  The count of factorizations is read from the run: ``n_b²`` on a
non-symmetric system, ``n_b(n_b+1)/2`` on the symmetric pipe used here.
Times are wall-clock around the call.
"""

import time

from repro.core import SolverConfig, solve_coupled
from repro.runner.reporting import render_table

from bench_utils import write_result


def test_refactorization_overhead(benchmark, pipe_4k):
    rows = []
    measured = {}
    for n_b in (1, 2, 4):
        t0 = time.perf_counter()
        sol = solve_coupled(pipe_4k, "multi_factorization",
                            SolverConfig(n_b=n_b))
        wall = time.perf_counter() - t0
        factor_time = sol.stats.phases["sparse_factorization_schur"]
        n_fact = sol.stats.n_sparse_factorizations
        oracle = wall - factor_time * (n_fact - 1) / n_fact
        measured[n_b] = (wall, oracle)
        rows.append((
            n_b, n_fact, f"{wall:.2f}s", f"{oracle:.2f}s",
            f"{wall / oracle:.2f}x",
        ))
    write_result(
        "ablation_refactorization",
        render_table(
            ["n_b", "#factorizations", "measured", "single-factorization "
             "oracle", "overhead"],
            rows,
            title="Ablation: superfluous refactorization cost in "
                  "multi-factorization (pipe N=4,000)",
        ),
    )
    # the overhead must grow with n_b (that is the paper's Figure 13 story)
    overhead = {nb: t / o for nb, (t, o) in measured.items()}
    assert overhead[4] > overhead[1]
    benchmark.pedantic(
        solve_coupled,
        args=(pipe_4k, "multi_factorization", SolverConfig(n_b=1)),
        rounds=1, iterations=1,
    )
