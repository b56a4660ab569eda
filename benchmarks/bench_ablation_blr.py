"""Ablation: BLR compression in the sparse solver (DESIGN.md §5.2).

The paper keeps MUMPS' BLR compression on throughout (§V-A) and switches
it off only for Table II's reference rows.  This bench quantifies what the
flag buys in this package: stored factor bytes and solve accuracy versus
factorization time, at two tolerances.
"""

import numpy as np
import pytest

from repro.memory import MemoryTracker, fmt_bytes
from repro.sparse import BLRConfig, SparseSolver
from repro.runner.reporting import render_table

from bench_utils import write_result


@pytest.fixture(scope="module")
def problem():
    from repro.fembem import generate_pipe_case
    return generate_pipe_case(16_000)


def _run(problem, blr):
    import time
    solver = SparseSolver(blr=blr, tracker=MemoryTracker())
    t0 = time.perf_counter()
    f = solver.factorize(solver.analyse(problem.a_vv, problem.coords_v),
                         problem.a_vv, symmetric_values=True)
    t_factor = time.perf_counter() - t0
    rng = np.random.default_rng(0)
    b = rng.standard_normal(problem.n_fem)
    x = f.solve(b)
    err = float(np.linalg.norm(problem.a_vv @ x - b) / np.linalg.norm(b))
    bytes_ = f.factor_bytes
    f.free()
    return t_factor, bytes_, err


def test_blr_onoff(benchmark, problem):
    rows = []
    results = {}
    for label, blr in [
        ("off", None),
        ("on, eps=1e-3", BLRConfig(tol=1e-3, min_panel=48,
                                   max_rank_fraction=1.0)),
        ("on, eps=1e-6", BLRConfig(tol=1e-6, min_panel=48,
                                   max_rank_fraction=1.0)),
    ]:
        t, nbytes, err = _run(problem, blr)
        results[label] = (t, nbytes, err)
        rows.append((label, f"{t:.2f}s", fmt_bytes(nbytes), f"{err:.1e}"))
    write_result(
        "ablation_blr",
        render_table(
            ["BLR", "factor time", "factor bytes", "solve rel. err"],
            rows,
            title=f"Ablation: BLR panel compression "
                  f"(pipe N=16,000, n_fem={problem.n_fem})",
        ),
    )
    # looser tolerance stores less, exact mode is error-free
    assert results["on, eps=1e-3"][1] <= results["off"][1]
    assert results["off"][2] < 1e-12
    assert results["on, eps=1e-3"][2] < 1e-2
    benchmark.pedantic(_run, args=(problem, None), rounds=1, iterations=1)
