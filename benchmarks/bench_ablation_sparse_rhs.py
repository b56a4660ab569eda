"""Ablation: sparse right-hand sides and sparse solutions (DESIGN.md §5.1).

The multi-solve algorithm's blocked sparse solves take right-hand sides
that are columns of ``A_svᵀ`` — nonzero only near the surface — and their
solutions are read only through ``A_sv``, on the rows of ``Z_i`` the
Schur container stores.  ``MultifrontalFactorization.solve`` prunes both
sweeps along the assembly tree: the forward one to the fronts under a
right-hand-side nonzero (the MUMPS ICNTL(20) analog, on for sparse
input), the backward one to the fronts over a ``wanted`` solution row.
The switches only exist on that method (``exploit_sparsity=``,
``wanted=``), so this bench cuts the ``n_c``-column panels as the
compressed container does, and reports per case the share of the factor
bytes each sweep visits and the seconds of all panels unpruned,
forward-pruned and pruned both ways.
"""

import time

import numpy as np
import pytest

from repro.core import SolverConfig
from repro.core.schur_tools import HodlrSchurContainer, restrict_coupling
from repro.memory import MemoryTracker
from repro.runner.reporting import render_table
from repro.sparse import SparseSolver

from bench_utils import write_result

N_C = 64
ROUNDS = 3


def _factorize(problem):
    solver = SparseSolver()
    return solver.factorize(
        solver.analyse(problem.a_vv, problem.coords_v), problem.a_vv,
        symmetric_values=problem.symmetric,
    )


def _panels(problem):
    """``(rhs, wanted)`` per panel: the CSC columns of ``A_svᵀ`` and the
    volume rows ``A_sv`` reads for the rows of ``S`` the panel updates."""
    tracker = MemoryTracker()
    container = HodlrSchurContainer(
        problem, SolverConfig(dense_backend="hmat"), tracker)
    a_sv_t = problem.a_sv.T.tocsc()
    panels = []
    for lo in range(0, problem.n_bem, N_C):
        rows, cols = container.panel(lo, min(problem.n_bem, lo + N_C))
        panels.append(
            (a_sv_t[:, cols], restrict_coupling(problem.a_sv, rows)[1]))
    container.free()
    tracker.assert_all_freed()
    return panels


def _swept_shares(mf, panels):
    """Mean share of the factor bytes the forward / backward sweep of a
    panel visits."""
    sym = mf.symbolic
    nbytes = np.array([fr.nbytes() for fr in mf._fronts], dtype=float)
    forward = backward = 0.0
    for rhs, wanted in panels:
        forward += nbytes[mf._active_mask(sym.interior_pos[rhs.indices])].sum()
        backward += nbytes[mf._active_mask(sym.interior_pos[wanted])].sum()
    total = nbytes.sum() * len(panels)
    return forward / total, backward / total


def _sweep_seconds(mf, panels, exploit, restrict):
    """Best of ``ROUNDS`` passes over every panel."""
    best = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for rhs, wanted in panels:
            mf.solve(rhs, exploit_sparsity=exploit,
                     wanted=wanted if restrict else None)
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
        rhs, wanted = panels[len(panels) // 2]
        if not rows:  # pytest-benchmark's own row: one pipe panel, both ways
            benchmark.pedantic(
                mf.solve, args=(rhs,), kwargs={"wanted": wanted},
                rounds=3, iterations=1,
            )
        # pruning skips work, it never changes a value that is read
        x_off = mf.solve(rhs, exploit_sparsity=False)
        np.testing.assert_allclose(mf.solve(rhs), x_off, atol=1e-10)
        assert np.array_equal(mf.solve(rhs, wanted=wanted),
                              mf.solve(rhs)[wanted])
        forward, backward = _swept_shares(mf, panels)
        full = _sweep_seconds(mf, panels, False, False)
        fwd = _sweep_seconds(mf, panels, True, False)
        both = _sweep_seconds(mf, panels, True, True)
        rows.append((name, len(panels), f"{forward:.2f}", f"{backward:.2f}",
                     f"{full:.3f}s", f"{fwd:.3f}s", f"{both:.3f}s",
                     f"{full / both:.2f}x"))
        # a lower-stored S leaves whole subtrees unread; a two-sided one
        # reads every row of Z_i, whose fronts have every front above them
        if problem.symmetric:
            assert backward < 0.9
        else:
            assert backward > 0.95
        # skipping fronts must not be slower (usually clearly faster)
        assert fwd <= full * 1.10
        assert both <= fwd * 1.10
        mf.free()
    write_result(
        "ablation_sparse_rhs",
        render_table(
            ["case", "panels", "fwd share", "bwd share", "unpruned",
             "fwd-pruned", "both-pruned", "unpruned / both"],
            rows,
            title=f"Ablation: pruning of mf.solve over the A_sv^T column "
                  f"panels, cut as the compressed container cuts them "
                  f"(n_c={N_C}, share of factor bytes swept, best of "
                  f"{ROUNDS})",
        ),
    )
