"""The multi-solve algorithm (paper §IV-A, Algorithms 1 and 2).

Multi-solve evolves the baseline coupling: instead of one sparse solve with
all of :math:`A_{sv}^T`, the Schur complement is assembled by **blocks of
columns** through successive blocked sparse solves,

.. math::

    Y_i = A_{vv}^{-1} (A_{sv}^T)_i, \\quad
    Z_i = A_{sv} Y_i, \\quad
    S_i = A_{ss_i} - Z_i ,

so the dense working set shrinks from ``n_v × n_s`` to ``n_v × n_c``.

* With the uncompressed dense backend (MUMPS/SPIDO) this is the
  **baseline multi-solve** (Algorithm 1): ``S`` still lives in a dense
  buffer, but the huge solve panel never exists.
* With the hierarchical backend (MUMPS/HMAT) this is the
  **compressed-Schur multi-solve** (Algorithm 2): ``S`` starts as the
  ACA-compressed :math:`A_{ss}` and each dense ``Z_i`` is folded in by a
  *compressed AXPY* (compression + recompression).  The Schur block width
  ``n_S`` (``config.n_s_block``) is dissociated from the solve block width
  ``n_c`` to amortise recompression cost, exactly as §IV-A2 argues: ``S``
  is recompressed once per ``n_S`` columns, not once per panel.

Both are one block producer: each ``n_c`` panel is a
:class:`~repro.runtime.PanelTask` that solves, multiplies and hands
``Z_i`` to the Schur container's ``prepare`` on the worker that computed
it, and :func:`~repro.core.schur_tools.assemble_schur` commits the
panels in panel order — so the assembled ``S`` (and hence the solution)
is bit-identical for any worker count.  A task's logical footprint — the
solve panel ``Y_i`` *and* the SpMM result ``Z_i`` — is acquired from the
memory tracker under budget-aware admission control.

On a compressed ``S``, ``prepare`` is the expensive half of the
compressed AXPY — the SVDs of the quadrant pieces — and the cheap commits
append to per-block deferred-recompression accumulators (see
:class:`repro.hmatrix.rk.RkAccumulator`).  The panels are cut inside
``n_S``-column windows, and ``S`` is flushed after the panel that closes
a window, recompressing each touched block once; no dense ``n_S``-wide
block is ever staged.  On an entrywise ``S`` the commit is the plain
AXPY and the flush does nothing.
"""

from __future__ import annotations

import numpy as np

from repro.core.schur_tools import (
    RunContext,
    assemble_schur,
    make_schur_container,
    prepare_on_worker,
    prepare_updates,
    restrict_coupling,
    schur_panel,
)
from repro.runtime import PanelTask

#: ``S_i = A_ss_i − Z_i``
ALPHA = -1.0


def _panel_kernel(w, timer, k: int):
    """Panel ``k`` in a worker process: the picklable twin of the thread
    closure below (process backend; ROADMAP item 5(b) deletes it)."""
    rows, cols = w["panels"][k]
    z = schur_panel(w["mf"], w["a_sv_t"], *w["couplings"][k], cols, timer)
    return prepare_on_worker(w, timer, ALPHA, [(z, rows, cols)])


def assemble_multi_solve(ctx: RunContext):
    """Run the multi-solve Schur assembly and factorization phases.

    Returns ``(mf, container, sparse_factor_bytes)`` with the sparse
    factorization and the factored Schur container alive and owned by
    ``ctx`` — the pieces a :class:`repro.core.factorized.CoupledFactorization`
    keeps for repeated right-hand sides.
    """
    problem, config = ctx.problem, ctx.config
    sparse = ctx.sparse_solver()

    with ctx.timer.phase("sparse_factorization"):
        mf = ctx.own(sparse.factorize(
            ctx.analyse(sparse), problem.a_vv,
            symmetric_values=problem.symmetric, timer=ctx.timer,
        ))
    ctx.n_sparse_factorizations += 1
    sparse_factor_bytes = mf.factor_bytes

    with ctx.timer.phase("schur_init"):
        container = ctx.own(make_schur_container(problem, config, ctx.tracker))

    n_s = problem.n_bem
    n_c = min(config.n_c, n_s)
    itemsize = np.dtype(problem.dtype).itemsize
    a_sv = problem.a_sv
    a_sv_t = a_sv.T.tocsc()
    # Algorithm 2 recompresses S once per n_S columns: the n_c panels are
    # cut inside those windows and S is flushed where a window closes (an
    # entrywise S has one window, all of it)
    n_s_block = min(container.flush_window(config.n_s_block), n_s)
    windows = [(lo, min(n_s, lo + n_s_block))
               for lo in range(0, n_s, n_s_block)]
    bounds = [(jlo, min(hi, jlo + n_c))
              for lo, hi in windows for jlo in range(lo, hi, n_c)]
    # the container says which rows and columns of S a column range is
    panels = [container.panel(jlo, jhi) for jlo, jhi in bounds]
    # ... and A_sv[rows] over the volume unknowns it reads, once per panel
    couplings = [restrict_coupling(a_sv, rows) for rows, _ in panels]

    def panel_task(k: int) -> PanelTask:
        """One blocked sparse solve + SpMM, ``Z[rows, cols]`` of panel
        ``k``, prepared on the worker that solved it.  The budget covers
        ``Y`` (``len(wanted) × n_c``) and ``Z`` (``len(rows) × n_c``), plus
        headroom for the solver's work vector and the gather ``prepare``
        makes of ``Z``; it shrinks as each intermediate dies."""
        rows, cols = panels[k]
        a_rows, wanted = couplings[k]
        n_rows, n_wanted = a_rows.shape
        width = bounds[k][1] - bounds[k][0]
        z_bytes = n_rows * width * itemsize

        def fn(timer, alloc):
            z = schur_panel(mf, a_sv_t, a_rows, wanted, cols, timer)
            # live set: Z plus the gather prepare makes of it
            alloc.resize(z.nbytes + container.gather_bytes(z.nbytes))
            return prepare_updates(container, ALPHA, [(z, rows, cols)],
                                   timer, alloc)

        return PanelTask(
            index=k,
            fn=fn,
            cost_bytes=n_wanted * width * itemsize + z_bytes,
            headroom_bytes=(mf.solve_workspace_bytes(width, a_sv_t.dtype)
                            + container.gather_bytes(z_bytes)),
            category="solve_panel",
            label=f"Y/Z panel {k}",
            kernel=_panel_kernel,
            kernel_args=(k,),
            result_nbytes=z_bytes,
        )

    window_ends = {hi for _, hi in windows[:-1]}
    assemble_schur(
        ctx, container, "multi-solve",
        [panel_task(k) for k in range(len(panels))],
        flush_after={k for k, (_, hi) in enumerate(bounds)
                     if hi in window_ends},
        alpha=ALPHA,
        pieces=lambda task, z: [(z, *panels[task.index])],
        # shipped once per process worker: the factorization (tracker
        # stripped by its __getstate__), the right-hand sides and the
        # panel index sets with their restricted couplings
        worker_payload={"mf": mf, "a_sv_t": a_sv_t, "panels": panels,
                        "couplings": couplings},
    )
    ctx.count_sparse_solves(len(panels))
    return mf, container, sparse_factor_bytes
