"""Figure 12 bench: multi-solve performance/memory trade-off.

Sweeps the solve block width ``n_c`` (baseline multi-solve) and the Schur
block width ``n_S`` (compressed multi-solve with pinned ``n_c``) at a
fixed scaled problem size, reproducing the paper's observations: raising
``n_c`` buys time then memory; a too-small ``n_S`` pays recompression
overhead — the reason the two parameters are dissociated (§IV-A2).

In the compressed lanes ``S``'s accumulators are flushed once per
``n_S`` committed columns (the paper's Algorithm 2), whatever ``n_c``.
"""

import pytest

from repro.core import SolverConfig, solve_coupled
from repro.runner.experiments import run_fig12
from repro.runner.reporting import render_fig12

from bench_utils import write_result

NC_SWEEP = [16, 64, 256]
NS_SWEEP = [512, 1024]


@pytest.fixture(scope="module")
def tradeoff_rows():
    return run_fig12(n_total=8_000, nc_values=NC_SWEEP, ns_values=NS_SWEEP)


def test_fig12_tradeoff(benchmark, tradeoff_rows, pipe_8k):
    write_result("fig12", render_fig12(tradeoff_rows))
    spido = {
        r["n_c"]: r for r in tradeoff_rows
        if r["variant"].startswith("multi_solve (MUMPS/SPIDO)")
    }
    # larger solve blocks are faster ... and hungrier (paper Fig. 12)
    assert spido[max(NC_SWEEP)]["time"] < spido[min(NC_SWEEP)]["time"]
    assert spido[max(NC_SWEEP)]["peak_bytes"] > spido[min(NC_SWEEP)]["peak_bytes"]
    # the compressed variant needs far less memory than the dense one
    compressed = [r for r in tradeoff_rows if "n_c = n_S" in r["variant"]]
    assert min(r["peak_bytes"] for r in compressed) < min(
        r["peak_bytes"] for r in spido.values()
    )
    benchmark.pedantic(
        solve_coupled,
        args=(pipe_8k, "multi_solve",
              SolverConfig(dense_backend="spido", n_c=256)),
        rounds=1, iterations=1,
    )


def test_fig12_ns_dissociation(benchmark, tradeoff_rows, pipe_8k):
    """Pinning n_c and growing n_S amortises recompression (time drops
    versus the tiny-n_S coupled sweep)."""
    tiny_ns = [
        r for r in tradeoff_rows
        if "n_c = n_S" in r["variant"] and r["n_c"] == min(NC_SWEEP)
    ]
    pinned = [r for r in tradeoff_rows if f"n_c = {max(NC_SWEEP)}" in r["variant"]]
    assert pinned, "pinned-n_c rows missing"
    assert min(r["time"] for r in pinned) < tiny_ns[0]["time"]
    benchmark.pedantic(
        solve_coupled,
        args=(pipe_8k, "multi_solve",
              SolverConfig(dense_backend="hmat", n_c=256, n_s_block=1024)),
        rounds=1, iterations=1,
    )
