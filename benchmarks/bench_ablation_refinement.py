"""Ablation: iterative refinement versus tighter compression.

Two routes to a given accuracy with the compressed couplings: tighten ε
(more memory, slower compression) or keep ε loose and run a couple of
iterative-refinement steps against the exact operator (two extra solves
per step).  The paper runs without refinement; this bench shows the
trade the production companion buys.
"""


from repro.core import CoupledFactorization, SolverConfig
from repro.memory import fmt_bytes
from repro.runner.reporting import render_table

from bench_utils import write_result

LOOSE = SolverConfig(dense_backend="hmat", epsilon=1e-2, n_c=128,
                     n_s_block=512)


def refined_run(problem, config, steps):
    """Factorize, solve with ``steps`` refinement rounds; ``(stats, error)``."""
    with CoupledFactorization(problem, "multi_solve", config) as fact:
        x_v, x_s = fact.solve(problem.b_v, problem.b_s,
                              refinement_steps=steps)
        return fact.stats, problem.relative_error(x_v, x_s)


def test_refinement_vs_tight_epsilon(benchmark, pipe_8k):
    rows = []
    results = {}
    configs = [
        ("eps=1e-2, no IR", LOOSE, 0),
        ("eps=1e-2, 1 IR step", LOOSE, 1),
        ("eps=1e-2, 2 IR steps", LOOSE, 2),
        ("eps=1e-4, no IR", LOOSE.with_(epsilon=1e-4), 0),
    ]
    for label, config, steps in configs:
        stats, err = refined_run(pipe_8k, config, steps)
        results[label] = (stats, err)
        rows.append((
            label,
            f"{stats.total_time:.2f}s",
            fmt_bytes(stats.peak_bytes),
            fmt_bytes(stats.schur_bytes),
            f"{err:.1e}",
        ))
    write_result(
        "ablation_refinement",
        render_table(
            ["configuration", "time", "peak mem", "S bytes", "rel. err"],
            rows,
            title="Ablation: iterative refinement vs tighter compression "
                  "(compressed multi-solve, pipe N=8,000)",
        ),
    )
    # loose-plus-refined matches or beats the tight-epsilon accuracy with
    # a smaller compressed Schur
    loose_stats, loose_err = results["eps=1e-2, 2 IR steps"]
    tight_stats, tight_err = results["eps=1e-4, no IR"]
    assert loose_err < tight_err * 10
    assert loose_stats.schur_bytes < tight_stats.schur_bytes
    benchmark.pedantic(
        refined_run,
        args=(pipe_8k, SolverConfig(dense_backend="hmat", epsilon=1e-2), 2),
        rounds=1, iterations=1,
    )
