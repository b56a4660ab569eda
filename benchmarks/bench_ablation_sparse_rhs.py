"""Ablation: sparse right-hand-side exploitation (DESIGN.md §5.1).

The multi-solve algorithm's blocked sparse solves use right-hand sides
that are columns of ``A_svᵀ`` — nonzero only near the surface.  The
MUMPS-ICNTL(20) analog skips fronts whose subtree carries no RHS nonzero
in the forward sweep; the paper always turns this on, and so do the
coupling algorithms: they hand ``MultifrontalFactorization.solve`` the
sparse panel, which prunes on sparse input.  The switch only exists on
that method (``exploit_sparsity=``), so this bench times every
``n_c``-column panel of ``A_svᵀ`` through it, pruned and unpruned.
"""

import time

import numpy as np
import pytest

from repro.runner.reporting import render_table
from repro.sparse import SparseSolver

from bench_utils import write_result

N_C = 64
ROUNDS = 3


def _factorize(problem):
    return SparseSolver().factorize(
        problem.a_vv, coords=problem.coords_v,
        symmetric_values=problem.symmetric,
    )


def _panels(problem):
    a_sv_t = problem.a_sv.T.tocsc()
    return [a_sv_t[:, lo:lo + N_C].tocsr()
            for lo in range(0, problem.n_bem, N_C)]


def _sweep_seconds(mf, panels, exploit):
    """Best of ``ROUNDS`` passes over every panel."""
    best = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for rhs in panels:
            mf.solve(rhs, exploit_sparsity=exploit)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def cases(pipe_8k, aircraft_4k):
    return {"pipe N=8,000": pipe_8k, "aircraft N=4,000": aircraft_4k}


def test_sparse_rhs_exploitation(benchmark, cases):
    rows = []
    for name, problem in cases.items():
        mf = _factorize(problem)
        panels = _panels(problem)
        if not rows:  # pytest-benchmark's own row: one pruned pipe panel
            benchmark.pedantic(
                mf.solve, args=(panels[0],),
                kwargs={"exploit_sparsity": True}, rounds=3, iterations=1,
            )
        # pruning skips work, it never changes a value that is read
        x_on = mf.solve(panels[0], exploit_sparsity=True)
        x_off = mf.solve(panels[0], exploit_sparsity=False)
        np.testing.assert_allclose(x_on, x_off, atol=1e-10)
        on = _sweep_seconds(mf, panels, True)
        off = _sweep_seconds(mf, panels, False)
        rows.append((name, len(panels), f"{on:.3f}s", f"{off:.3f}s",
                     f"{off / on:.2f}x"))
        # skipping inactive fronts must not be slower (usually clearly faster)
        assert on <= off * 1.10
        mf.free()
    write_result(
        "ablation_sparse_rhs",
        render_table(
            ["case", "panels", "pruned", "unpruned", "unpruned / pruned"],
            rows,
            title=f"Ablation: sparse-RHS pruning of mf.solve over the "
                  f"A_sv^T column panels (n_c={N_C}, best of {ROUNDS})",
        ),
    )
