"""Ablation: geometric versus graph nested dissection (DESIGN.md §5.5).

The coupling algorithms default to geometric nested dissection (the FEM
grids carry coordinates); the graph variant (BFS level-set separators)
covers matrices without geometry.  This bench compares fill, peak front
size and factorization time.
"""

import time

import numpy as np

from repro.memory import MemoryTracker, fmt_bytes
from repro.sparse import SparseSolver
from repro.runner.reporting import render_table

from bench_utils import write_result


def test_ordering_choice(benchmark, pipe_8k):
    rows = []
    results = {}
    for ordering in ("geometric", "graph"):
        tracker = MemoryTracker()
        solver = SparseSolver(ordering=ordering, tracker=tracker)
        t0 = time.perf_counter()
        f = solver.factorize(solver.analyse(pipe_8k.a_vv, pipe_8k.coords_v),
                             pipe_8k.a_vv, symmetric_values=True)
        t_factor = time.perf_counter() - t0
        rng = np.random.default_rng(0)
        b = rng.standard_normal(pipe_8k.n_fem)
        err = float(np.linalg.norm(pipe_8k.a_vv @ f.solve(b) - b)
                    / np.linalg.norm(b))
        results[ordering] = (t_factor, f.factor_bytes, tracker.peak)
        rows.append((
            ordering, f"{t_factor:.2f}s", fmt_bytes(f.factor_bytes),
            fmt_bytes(tracker.peak), f"{err:.1e}",
        ))
        f.free()
    write_result(
        "ablation_ordering",
        render_table(
            ["ordering", "factor time", "factor bytes", "peak mem",
             "solve err"],
            rows,
            title=f"Ablation: nested-dissection flavour "
                  f"(pipe n_fem={pipe_8k.n_fem})",
        ),
    )
    # both must produce correct factorizations of comparable quality
    geo_bytes = results["geometric"][1]
    graph_bytes = results["graph"][1]
    assert graph_bytes < 5 * geo_bytes
    geometric = SparseSolver(ordering="geometric")
    benchmark.pedantic(
        lambda: geometric.factorize(
            geometric.analyse(pipe_8k.a_vv, pipe_8k.coords_v), pipe_8k.a_vv,
            symmetric_values=True,
        ).free(),
        rounds=1, iterations=1,
    )
