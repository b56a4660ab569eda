"""Figure 13 bench: multi-factorization trade-off in the block count n_b.

More Schur blocks mean smaller dense blocks (less memory) but more
superfluous re-factorizations of ``A_vv`` (more time) — the paper's
Figure 13 at N = 1M, reproduced at the scaled N = 4,000.  The symmetric
pipe needs ``n_b(n_b+1)/2`` blocks; the paper's ``n_b²`` count is the
second set of columns, the same matrices with the symmetry flag cleared.
"""

import pytest

from repro.core import SolverConfig, solve_coupled
from repro.runner.experiments import run_fig13
from repro.runner.reporting import render_fig13

from bench_utils import write_result

NB_SWEEP = [1, 2, 3, 4]


@pytest.fixture(scope="module")
def tradeoff_rows():
    return run_fig13(n_total=4_000, nb_values=NB_SWEEP)


def test_fig13_refactorization_cost(benchmark, tradeoff_rows, pipe_4k):
    write_result("fig13", render_fig13(tradeoff_rows))
    spido = {
        r["n_b"]: r for r in tradeoff_rows if "SPIDO" in r["variant"]
    }
    # more re-factorizations: time grows with the block count ...
    assert spido[4]["time"] > spido[1]["time"]
    assert spido[4]["n_sparse_factorizations"] == 10
    # ... n_b² of them, as in the paper, once the symmetry flag is cleared
    assert spido[4]["unsymmetric"]["n_sparse_factorizations"] == 16
    assert spido[4]["unsymmetric"]["time"] > spido[1]["unsymmetric"]["time"]
    # ... while the Schur-block workspace shrinks
    assert spido[4]["peak_bytes"] < spido[1]["peak_bytes"]
    benchmark.pedantic(
        solve_coupled,
        args=(pipe_4k, "multi_factorization", SolverConfig(n_b=2)),
        rounds=1, iterations=1,
    )


def test_fig13_compression_reduces_memory(benchmark, tradeoff_rows, pipe_4k):
    """The compressed variant cuts memory further, with the paper's caveat
    that the gain is smaller than for multi-solve."""
    for n_b in NB_SWEEP:
        spido = next(r for r in tradeoff_rows
                     if r["n_b"] == n_b and "SPIDO" in r["variant"])
        hmat = next(r for r in tradeoff_rows
                    if r["n_b"] == n_b and "HMAT" in r["variant"])
        assert hmat["peak_bytes"] < spido["peak_bytes"]
    benchmark.pedantic(
        solve_coupled,
        args=(pipe_4k, "multi_factorization",
              SolverConfig(dense_backend="hmat", n_b=2)),
        rounds=1, iterations=1,
    )
