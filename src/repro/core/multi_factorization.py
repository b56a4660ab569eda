"""The multi-factorization algorithm (paper §IV-B, Algorithm 3).

Multi-factorization evolves the advanced coupling: the Schur complement is
computed by **square blocks**

.. math::

    S_{ij} = A_{ss_{ij}} - A_{sv_i} A_{vv}^{-1} A_{sv_j}^T

through one *sparse factorization+Schur* call per block on the temporary
matrix ``W = [[A_vv, A_sv_j^T], [A_sv_i, 0]]``.  Two costs faithfully
reproduced from the paper:

* ``W`` is non-symmetric whenever ``i ≠ j``, so the sparse solver runs in
  unsymmetric mode with **duplicated factor storage** (§IV-B1);
* the solver API offers no way to reuse the factorization of ``A_vv``
  across calls, so each block pays a full superfluous
  **re-factorization** — "hence the name of the method".

Only the last block's factors are ever read (by the right-hand-side
solves), so every other block asks the solver for its Schur block alone
(:meth:`~repro.sparse.SparseSolver.schur_complement`, MUMPS's
``ICNTL(31)=1``): it pays the same numeric factorization but stores no
factor, and one sparse factorization is kept per run.

A non-symmetric system runs all ``n_b²`` blocks in LU mode — the paper's
count, whose solver has no symmetric mode for ``W``.  Ours has one, and
on a symmetric system ``X_ji = X_ijᵀ``: only the ``n_b(n_b+1)/2`` blocks
``j ≤ i`` are factorized, the diagonal ones as LDLᵀ, and an off-diagonal
``X_ij`` is folded into ``S`` twice — at ``(rows_i, cols_j)`` and, as its
transpose view, at ``(rows_j, cols_i)``.

Each task hands its dense ``X_ij`` (and, on a symmetric system, the
mirror view) to the Schur container's ``prepare`` on the worker that
computed it, and :func:`~repro.core.schur_tools.assemble_schur` commits
the blocks in ``(i, j)`` order.  With the hierarchical dense backend that
is the compressed AXPY (§IV-B2): ``prepare`` pre-compresses ``X_ij`` on
its worker — only a low-rank plan travels to the serialized commit, which
appends to deferred-recompression accumulators — and a single flush
before the hierarchical factorization recompresses each off-diagonal
block once.  On an entrywise ``S`` the commit is the plain AXPY.

The block factorizations are mutually independent — each builds
its own ``W`` and pays its own sparse factorization — so they run on the
shared-memory parallel runtime (:mod:`repro.runtime`) when
``config.n_workers > 1``; the ordered commit keeps the assembled ``S``
bit-identical for any worker count.  With ``k`` workers up to ``k``
sparse factorizations are in progress at once, each with its own front
workspace and contribution blocks (the time/memory trade-off of
parallelising this algorithm), and one — the last block's — is kept.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.schur_tools import (
    RunContext,
    assemble_schur,
    make_schur_container,
    make_sparse_solver,
    prepare_on_worker,
    prepare_updates,
)
from repro.memory.tracker import MemoryTracker
from repro.runtime import PanelTask

#: ``S_ij = A_ss_ij + X_ij``
ALPHA = 1.0


def _surface_blocks(n_s: int, n_b: int):
    """Split the surface indices into ``n_b`` contiguous near-equal blocks."""
    return np.array_split(np.arange(n_s), min(n_b, n_s))


# -- process backend (ROADMAP item 5(b) deletes it) -----------------------------
#
# The picklable twin of the ``block_task`` closure runs in worker processes,
# each with a private sparse solver (untracked) and the coordinator's
# analysis of ``A_vv``, shipped once; the *last* block runs inline on the
# coordinator so its factors stay there for the right-hand-side solves.


def _facto_worker_ctx(payload):
    """Pool-initializer builder: per-process solver state from the payload."""
    payload["sparse"] = make_sparse_solver(payload["config"], MemoryTracker())
    return payload


def _build_w_block(a_vv, a_sv, rows_i, cols_j, dtype):
    """``W = [[A_vv, A_sv_jᵀ], [A_sv_i, 0]]`` padded to a square Schur block."""
    n_v = a_vv.shape[0]
    k_i, k_j = len(rows_i), len(cols_j)
    k = max(k_i, k_j)
    a_sv_i = a_sv[rows_i]
    a_sv_j_t = a_sv[cols_j].T
    # the Schur feature operates on a square block: pad the thinner
    # coupling block with structurally empty Schur variables
    if k_i < k:
        pad = sp.csr_matrix((k - k_i, n_v), dtype=dtype)
        c_block = sp.vstack([a_sv_i, pad], format="csr")
    else:
        c_block = a_sv_i
    if k_j < k:
        pad = sp.csr_matrix((n_v, k - k_j), dtype=dtype)
        b_block = sp.hstack([a_sv_j_t, pad], format="csr")
    else:
        b_block = a_sv_j_t
    w = sp.bmat([[a_vv, b_block], [c_block, None]], format="csr")
    return w, np.arange(n_v, n_v + k)


def _factorize_w_block(w, call, timer, i: int, j: int):
    """Build ``W_ij`` from the shared inputs ``w`` and run the solver's
    ``call`` on it with the shared analysis of ``A_vv`` (the interior
    block of every ``W``): ``factorize_schur`` for the kept last block,
    ``schur_complement`` for every other.

    ``W`` is non-symmetric whenever ``i ≠ j``; a diagonal block of a
    symmetric system runs the sparse solver's symmetric (LDLᵀ) mode —
    half the factor storage of the LU mode the paper's solvers are
    confined to ("we can not rely on a symmetric mode of the direct
    solver").
    """
    blocks = w["blocks"]
    w_mat, schur_vars = _build_w_block(
        w["a_vv"], w["a_sv"], blocks[i], blocks[j], w["dtype"]
    )
    with timer.phase("sparse_factorization_schur"):
        return call(
            w["analysis"], w_mat, schur_vars,
            symmetric_values=w["symmetric"] and i == j, timer=timer,
        )


def _folds(w, x_block, i: int, j: int):
    """Where ``X_ij`` goes in ``S``, as ``(values, rows, cols)``: its own
    position and, for an off-diagonal block of a symmetric system, the
    transpose view at the mirrored position (``X_ji`` is never computed)."""
    rows_i, cols_j = w["blocks"][i], w["blocks"][j]
    x = x_block[:len(rows_i), :len(cols_j)]
    if w["symmetric"] and i != j:
        return (x, rows_i, cols_j), (x.T, cols_j, rows_i)
    return ((x, rows_i, cols_j),)


def _facto_block_kernel(w, timer, i: int, j: int):
    """The Schur block of one non-final ``W`` on a worker process,
    prepared by :func:`~repro.core.schur_tools.prepare_on_worker`."""
    x_block, x_alloc = _factorize_w_block(
        w, w["sparse"].schur_complement, timer, i, j)
    try:
        return prepare_on_worker(w, timer, ALPHA, _folds(w, x_block, i, j))
    finally:
        x_alloc.free()


def assemble_multi_factorization(ctx: RunContext):
    """Run the multi-factorization Schur assembly and factorization.

    Returns ``(mf, container, sparse_factor_bytes)``, owned by ``ctx`` —
    ``mf`` is the last block's factorization, which still holds
    ``A_vv``'s factors for the right-hand-side solves, and the only one
    the run keeps.
    """
    problem, config = ctx.problem, ctx.config
    # the interior block of every W is A_vv: the ordering + symbolic
    # analysis runs once, here, and each block only grafts its Schur
    # border onto it (the split analyse/factorize API of real solvers);
    # the numeric re-factorization per block stays, faithful to the
    # paper (§IV-B1)
    sparse = ctx.sparse_solver()
    with ctx.timer.phase("sparse_factorization_schur"):
        analysis = ctx.analyse(sparse)

    with ctx.timer.phase("schur_init"):
        container = ctx.own(make_schur_container(problem, config, ctx.tracker))

    blocks = _surface_blocks(problem.n_bem, config.n_b)
    itemsize = np.dtype(problem.dtype).itemsize
    mf = None
    # what a block task reads, for the thread closure and (pickled once per
    # worker) the process kernel alike
    w = {
        "analysis": analysis,
        "a_vv": problem.a_vv,
        "a_sv": problem.a_sv,
        "symmetric": problem.symmetric,
        "dtype": problem.dtype,
        "blocks": blocks,
        "config": config,
    }

    def block_task(seq: int, i: int, j: int, is_last: bool) -> PanelTask:
        """One ``W = [[A_vv, A_sv_jᵀ], [A_sv_i, 0]]`` factorization+Schur."""
        k = max(len(blocks[i]), len(blocks[j]))

        def fn(timer, alloc):
            nonlocal mf
            if is_last:
                # the last block's factorization still holds A_vv's
                # factors, which the coupled right-hand-side solves reuse
                mf = ctx.own(_factorize_w_block(
                    w, sparse.factorize_schur, timer, i, j))
                x_block, x_alloc = mf.take_schur()
            else:
                x_block, x_alloc = _factorize_w_block(
                    w, sparse.schur_complement, timer, i, j)
            # the task's allocation takes over X_ij's charge
            x_alloc.free()
            alloc.resize(x_block.nbytes)
            return prepare_updates(container, ALPHA,
                                   _folds(w, x_block, i, j), timer, alloc)

        # the factor storage is only known after the numeric factorization;
        # reserving the dense Schur block twice over is a scheduling
        # estimate — the tracker itself still hard-enforces the limit
        return PanelTask(
            index=seq,
            fn=fn,
            cost_bytes=0,
            headroom_bytes=2 * k * k * itemsize,
            category="schur_block",
            label=f"W block ({i},{j})",
            payload=(i, j),
            kernel=_facto_block_kernel,
            kernel_args=(i, j),
            result_nbytes=k * k * itemsize,
            # the last block's factors must live in the coordinator for
            # the right-hand-side solves; the process backend runs it
            # there once the pool has drained
            inline=is_last,
        )

    # a symmetric system needs one triangle of blocks (X_ji = X_ijᵀ);
    # either way the last block is the diagonal (n_b−1, n_b−1)
    pairs = [
        (i, j) for i in range(len(blocks))
        for j in range(i + 1 if problem.symmetric else len(blocks))
    ]
    assemble_schur(
        ctx, container, "multi-facto",
        [block_task(seq, i, j, seq == len(pairs) - 1)
         for seq, (i, j) in enumerate(pairs)],
        alpha=ALPHA,
        pieces=lambda task, x: _folds(w, x, *task.payload),
        worker_payload=w, worker_builder=_facto_worker_ctx,
    )
    ctx.n_sparse_factorizations += len(pairs)
    return mf, container, mf.factor_bytes
