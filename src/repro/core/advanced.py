"""The advanced sparse/dense solver coupling (paper §II-F).

A single *sparse factorization+Schur* call on the assembled coupled matrix

.. math::

    W = \\begin{pmatrix} A_{vv} & A_{sv}^T \\\\ A_{sv} & 0 \\end{pmatrix}

returns (dense, per the solver API) the Schur block
:math:`-A_{sv} A_{vv}^{-1} A_{sv}^T`; adding :math:`A_{ss}` yields ``S``.
The sparse solver manages the sparsity and BLAS-3 efficiency of the whole
condensation internally — the performance-optimal standard coupling — but
the dense ``S`` (plus ``A_ss``) caps the reachable problem size, which is
precisely the limitation (§II-G2) the multi-factorization algorithm
works around.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.schur_tools import DenseSchurContainer, RunContext
from repro.utils.errors import ConfigurationError


def assemble_advanced(ctx: RunContext):
    """Run the advanced-coupling assembly and factorization phases.

    Returns ``(mf, container, sparse_factor_bytes)`` with both
    factorizations alive for repeated right-hand sides, owned by ``ctx``.
    """
    if ctx.config.dense_backend != "spido":
        raise ConfigurationError(
            "the advanced coupling receives S dense from the sparse "
            "solver; use dense_backend='spido' (multi-factorization is "
            "its compressed evolution)"
        )
    problem, config = ctx.problem, ctx.config
    sparse = ctx.sparse_solver()

    n_v, n_s = problem.n_fem, problem.n_bem
    w = sp.bmat(
        [[problem.a_vv, problem.a_sv.T], [problem.a_sv, None]], format="csr"
    )
    schur_vars = np.arange(n_v, n_v + n_s)

    with ctx.timer.phase("sparse_factorization_schur"):
        mf = ctx.own(sparse.factorize_schur(
            ctx.analyse(sparse), w, schur_vars,
            symmetric_values=problem.symmetric, timer=ctx.timer,
        ))
    ctx.n_sparse_factorizations += 1
    sparse_factor_bytes = mf.factor_bytes

    x_block, x_alloc = mf.take_schur()
    ctx.own(x_alloc)
    with ctx.timer.phase("schur_update"):
        container = ctx.own(DenseSchurContainer(problem, config, ctx.tracker))
        container.s += x_block
    del x_block
    ctx.free(x_alloc)

    with ctx.timer.phase("dense_factorization"):
        container.factorize(ctx.tracker)

    return mf, container, sparse_factor_bytes
