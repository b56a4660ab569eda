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

The independent panel solves run on the shared-memory parallel runtime
(:mod:`repro.runtime`) when ``config.n_workers > 1``: each panel is a
:class:`~repro.runtime.PanelTask` whose logical footprint — the solve
panel ``Y_i`` *and* the SpMM result ``Z_i`` — is acquired from the memory
tracker under budget-aware admission control, and the folds into the
Schur container are consumed on the caller thread in panel order, so the
assembled ``S`` (and hence the solution) is bit-identical for any worker
count.

On a compressed ``S`` each ``n_c`` panel is *pre-compressed* on the
worker that solved it — the SVDs of the quadrant pieces, the expensive
part of the compressed AXPY, leave the turnstile — and the cheap commits
append to per-block deferred-recompression accumulators in panel order
(see :class:`repro.hmatrix.rk.RkAccumulator`).  The panels are cut inside
``n_S``-column windows, and the commit of a window's last panel flushes
the accumulators, recompressing each touched block once; no dense
``n_S``-wide block is ever staged.
"""

from __future__ import annotations

import numpy as np

from repro.core.schur_tools import (
    RunContext,
    make_schur_container,
    restrict_coupling,
    schur_panel,
)
from repro.hmatrix.hmatrix import HMatrix
from repro.runtime import PanelTask


# -- process-backend kernels ----------------------------------------------------
#
# Module-level (hence picklable) counterparts of the closures below, run
# inside worker processes by :class:`repro.runtime.ProcessRuntime`.  The
# large inputs — the stripped multifrontal factorization, the coupling
# matrix, the panel index sets with the rows of ``A_sv`` they read, the
# HODLR structure skeleton — ship once per worker through the pool
# initializer; each task pickle carries only the panel number.


def _panel_solve_kernel(w, timer, k: int):
    """``Z[rows, cols]`` of panel ``k`` on a worker process."""
    return schur_panel(w["mf"], w["a_sv_t"], *w["couplings"][k],
                       w["panels"][k][1], timer)


def _panel_precompress_kernel(w, timer, k: int):
    """Solve + pre-compress one panel against the structure skeleton;
    only the portable low-rank plan travels back to the coordinator."""
    z = _panel_solve_kernel(w, timer, k)
    rows, cols = w["panels"][k]
    skel = w["skeleton"]
    before = skel.n_panel_compressions
    with timer.phase("schur_precompress"):
        plan = skel.precompress_axpy(-1.0, z, rows, cols)
    return HMatrix.export_plan(plan, skel.n_panel_compressions - before)


def assemble_multi_solve(ctx: RunContext):
    """Run the multi-solve Schur assembly and factorization phases.

    Returns ``(mf, container, sparse_factor_bytes)`` with the sparse
    factorization and the factored Schur container alive and owned by
    ``ctx`` — the pieces a :class:`repro.core.factorized.CoupledFactorization`
    keeps for repeated right-hand sides.
    """
    problem, config = ctx.problem, ctx.config
    compressed = config.dense_backend == "hmat"
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
    # Algorithm 2 recompresses the compressed S once per n_S columns: the
    # n_c panels are cut inside those windows and S's accumulators are
    # flushed where a window closes.  A dense S has one window, all of it
    n_s_block = min(config.n_s_block, n_s) if compressed else n_s
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
        ``k`` — pre-compressed on the worker that solved it when ``S`` is
        compressed.

        The task's budget covers the solution rows ``Y`` the solve
        returns (``len(wanted) × n_c``) and the SpMM result ``Z``
        (``len(rows) × n_c``) that outlives them, plus reserved headroom
        for the solver's nested work vector (and the cluster-permuted
        gather of ``Z`` on a compressed ``S``); the allocation is shrunk
        to what is still alive as each intermediate dies, and freed after
        the fold consumes the result.
        """
        rows, cols = panels[k]
        a_rows, wanted = couplings[k]
        n_rows, n_wanted = a_rows.shape
        width = bounds[k][1] - bounds[k][0]
        z_bytes = n_rows * width * itemsize

        def fn(timer, alloc):
            z = schur_panel(mf, a_sv_t, a_rows, wanted, cols, timer)
            if not compressed:
                alloc.resize(z.nbytes)
                return z
            # live set: Z plus its cluster-permuted gather
            alloc.resize(2 * z.nbytes)
            with timer.phase("schur_precompress"):
                plan = container.precompress_subtract(z, rows, cols)
            del z
            alloc.resize(plan.nbytes)
            return plan

        return PanelTask(
            index=k,
            fn=fn,
            cost_bytes=n_wanted * width * itemsize + z_bytes,
            headroom_bytes=(
                mf.solve_workspace_bytes(width, a_sv_t.dtype)
                + (z_bytes if compressed else 0)
            ),
            category="solve_panel",
            label=f"Y/Z panel {k}" + (" precompress" if compressed else ""),
            payload=k,
            kernel=(_panel_precompress_kernel if compressed
                    else _panel_solve_kernel),
            kernel_args=(k,),
            result_nbytes=0 if compressed else z_bytes,
        )

    backend = ctx.runtime_backend
    worker_payload = None
    if backend == "process":
        # shipped once per worker: the factorization (tracker stripped by
        # its __getstate__), the right-hand sides, the panel index sets
        # with their restricted couplings and — for the compressed
        # container — a values-free skeleton of S's structure
        worker_payload = {
            "mf": mf,
            "a_sv_t": a_sv_t,
            "panels": panels,
            "couplings": couplings,
        }
        if compressed:
            worker_payload["skeleton"] = container.structure_skeleton()
    # windows closed inside the run; the final flush closes the last one
    flush_after = {hi for _, hi in windows[:-1]}
    with ctx.runtime("multi-solve", worker_payload=worker_payload) as runtime:
        def consume(task, result):
            ctx.n_sparse_solves += 1
            k = task.payload
            if not compressed:
                # Algorithm 1: dense S, assembled column block by column
                # block; panels solve concurrently, folds land in panel
                # order
                with ctx.timer.phase("schur_update"):
                    container.subtract_block(result, *panels[k])
                return
            # Algorithm 2: the panel was pre-compressed on the worker that
            # solved it (the SVD of every quadrant piece — the expensive
            # part — runs off the turnstile); the cheap commit appends to
            # S's accumulators in panel order, and the panel that closes
            # an n_S window recompresses each touched block once
            with ctx.timer.phase("schur_compression"):
                container.commit(result)
                if bounds[k][1] in flush_after:
                    container.flush()

        runtime.run([panel_task(k) for k in range(len(panels))], consume)
        if compressed:
            # idempotent; closes the last window, so S carries no pending
            # updates into factorize
            with ctx.timer.phase("schur_compression"):
                container.flush()
        with ctx.timer.phase("dense_factorization"):
            container.factorize(ctx.tracker)
    return mf, container, sparse_factor_bytes
