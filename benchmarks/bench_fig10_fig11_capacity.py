"""Figures 10 and 11 bench: capacity study and accuracy of best runs.

Runs every algorithm/coupling over a reduced size grid under the scaled
memory limit (Fig. 10: best feasible times and the largest processable
system per approach), then reports the relative error of each best run
(Fig. 11: everything below the compression threshold ε = 1e-3).

The full-size sweep (scaled N up to 36,000, where the feasibility
boundaries separate the approaches) is available via
``python examples/pipe_capacity_study.py --full``; this bench keeps a
runtime budget of a few minutes while exercising every cell.
"""

import pytest

from repro.core import SolverConfig, solve_coupled
from repro.runner.experiments import run_fig10_fig11
from repro.runner.paper_reference import FIG11_EPSILON
from repro.runner.reporting import render_fig10, render_fig11
from repro.runner.workloads import pipe_memory_limit

from bench_utils import write_result

BENCH_SIZES = [4_000, 8_000, 16_000]

BENCH_GRID = {
    ("baseline", "spido"): [SolverConfig(dense_backend="spido")],
    ("advanced", "spido"): [SolverConfig(dense_backend="spido")],
    ("multi_solve", "spido"): [
        SolverConfig(dense_backend="spido", n_c=n_c) for n_c in (64, 256)
    ],
    ("multi_solve", "hmat"): [SolverConfig(dense_backend="hmat", n_c=128)],
    ("multi_factorization", "spido"): [
        SolverConfig(dense_backend="spido", n_b=n_b) for n_b in (1, 2)
    ],
    ("multi_factorization", "hmat"): [
        SolverConfig(dense_backend="hmat", n_b=n_b) for n_b in (1, 2)
    ],
}


#: Large-size probes: only the cheap algorithms run to completion there
#: (an infeasible configuration aborts as soon as the tracker trips, so
#: the OOM cells cost little); the multi-factorization/HMAT cells at these
#: sizes take minutes and are left to ``examples/pipe_capacity_study.py
#: --full``.
PROBE_SIZES = [28_000, 36_000]

PROBE_GRID = {
    ("baseline", "spido"): [SolverConfig(dense_backend="spido")],
    ("advanced", "spido"): [SolverConfig(dense_backend="spido")],
    ("multi_solve", "spido"): [SolverConfig(dense_backend="spido", n_c=256)],
    ("multi_solve", "hmat"): [
        SolverConfig(dense_backend="hmat", n_c=64, n_s_block=512)
    ],
    ("multi_factorization", "spido"): [
        SolverConfig(dense_backend="spido", n_b=2)
    ],
}


@pytest.fixture(scope="module")
def capacity_rows():
    rows = run_fig10_fig11(sizes=BENCH_SIZES, grid=BENCH_GRID,
                           memory_limit=pipe_memory_limit())
    rows += run_fig10_fig11(sizes=PROBE_SIZES, grid=PROBE_GRID,
                            memory_limit=pipe_memory_limit())
    return rows


def test_fig10_capacity_study(benchmark, capacity_rows, pipe_4k):
    write_result("fig10", render_fig10(capacity_rows))
    by_cell = {
        (r["algorithm"], r["coupling"], r["n_total"]): r
        for r in capacity_rows
    }
    # the baseline coupling's huge dense solve panel runs out of memory
    # first (the paper's motivation for multi-solve)
    assert not by_cell[("baseline", "MUMPS/SPIDO", 16_000)]["feasible"]
    # the multi-solve and multi-factorization algorithms still process the
    # largest bench size
    assert by_cell[("multi_solve", "MUMPS/HMAT", 16_000)]["feasible"]
    assert by_cell[("multi_solve", "MUMPS/SPIDO", 16_000)]["feasible"]
    # compressed multi-solve needs the least memory of all approaches at
    # the largest size (the paper's capacity champion)
    feasible = [r for r in capacity_rows
                if r["n_total"] == 16_000 and r["feasible"]]
    champion = min(feasible, key=lambda r: r["peak_bytes"])
    assert champion["algorithm"] == "multi_solve"
    assert champion["coupling"] == "MUMPS/HMAT"
    # capacity ordering at the probe sizes (the paper's Fig. 10 headline):
    # compressed multi-solve processes the largest system, baseline
    # multi-solve the next largest, the standard couplings die first
    caps = {}
    for r in capacity_rows:
        if r["feasible"]:
            key = (r["algorithm"], r["coupling"])
            caps[key] = max(caps.get(key, 0), r["n_total"])
    assert caps[("multi_solve", "MUMPS/HMAT")] == 36_000
    assert caps[("multi_solve", "MUMPS/SPIDO")] == 28_000
    assert caps[("advanced", "MUMPS/SPIDO")] <= 16_000
    assert caps[("multi_factorization", "MUMPS/SPIDO")] <= 16_000
    assert caps[("baseline", "MUMPS/SPIDO")] <= 8_000
    # benchmark one representative compressed multi-solve run
    benchmark.pedantic(
        solve_coupled,
        args=(pipe_4k, "multi_solve",
              SolverConfig(dense_backend="hmat", n_c=128, n_s_block=512)),
        rounds=1, iterations=1,
    )


def test_fig11_relative_error(benchmark, capacity_rows, pipe_4k):
    write_result("fig11", render_fig11(capacity_rows,
                                       epsilon=FIG11_EPSILON))
    for row in capacity_rows:
        if not row["feasible"]:
            continue
        # the paper's Fig. 11 claim: every best run stays below ε
        assert row["relative_error"] < FIG11_EPSILON
        # and the uncompressed-dense couplings are the more accurate ones
    spido = [r["relative_error"] for r in capacity_rows
             if r["feasible"] and r["coupling"] == "MUMPS/SPIDO"]
    hmat = [r["relative_error"] for r in capacity_rows
            if r["feasible"] and r["coupling"] == "MUMPS/HMAT"]
    assert max(spido) < max(hmat)
    benchmark.pedantic(
        solve_coupled,
        args=(pipe_4k, "advanced", SolverConfig()),
        rounds=1, iterations=1,
    )
