"""The baseline sparse/dense solver coupling (paper §II-E).

One sparse factorization of :math:`A_{vv}`, then a *single* sparse solve
with all of :math:`A_{sv}^T` as right-hand side — whose result, due to the
solver API, comes back as a huge dense ``n_v × n_s`` matrix (the paper's
"2.6 TiB of extra RAM" pathology) — an SpMM, the dense Schur subtraction,
and an uncompressed dense factorization of :math:`S`.

This is the state-of-the-art coupling found in prior work (§III) and the
starting point of the multi-solve algorithm; it exists here both as a
correctness reference and as the memory baseline the paper improves on.
"""

from __future__ import annotations

import numpy as np

from repro.core.schur_tools import DenseSchurContainer, RunContext
from repro.utils.errors import ConfigurationError


def assemble_baseline(ctx: RunContext):
    """Run the baseline-coupling assembly and factorization phases.

    Only the uncompressed dense backend is meaningful here (the Schur
    complement and the sparse-solve result are dense by construction).
    Returns ``(mf, container, sparse_factor_bytes)`` with both
    factorizations alive for repeated right-hand sides, owned by ``ctx``.
    """
    if ctx.config.dense_backend != "spido":
        raise ConfigurationError(
            "the baseline coupling stores S dense; use dense_backend="
            "'spido' (the multi-solve algorithm is its compressed "
            "evolution)"
        )
    problem, config = ctx.problem, ctx.config
    sparse = ctx.sparse_solver()

    with ctx.timer.phase("sparse_factorization"):
        mf = ctx.own(sparse.factorize(
            ctx.analyse(sparse), problem.a_vv,
            symmetric_values=problem.symmetric, timer=ctx.timer,
        ))
    ctx.n_sparse_factorizations += 1
    sparse_factor_bytes = mf.factor_bytes

    # the defining (and memory-pathological) step: Y = A_vv^{-1} A_sv^T,
    # retrieved as one dense n_v-by-n_s matrix
    rhs = problem.a_sv.T.tocsr()
    itemsize = np.dtype(problem.dtype).itemsize
    y_alloc = ctx.own(ctx.tracker.allocate(
        problem.n_fem * problem.n_bem * itemsize,
        category="solve_panel", label="dense A_vv^-1 A_sv^T",
    ))
    with ctx.timer.phase("sparse_solve"):
        y = mf.solve(rhs)
    ctx.count_sparse_solves(1)

    with ctx.tracker.borrow(
        problem.n_bem * problem.n_bem * itemsize,
        category="spmm_panel", label="A_sv Y",
    ):
        with ctx.timer.phase("spmm"):
            z = problem.a_sv @ y
        del y
        ctx.free(y_alloc)

        with ctx.timer.phase("schur_update"):
            container = ctx.own(
                DenseSchurContainer(problem, config, ctx.tracker))
            container.s -= z
        del z

    with ctx.timer.phase("dense_factorization"):
        container.factorize(ctx.tracker)

    return mf, container, sparse_factor_bytes
