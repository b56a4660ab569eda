"""Shared machinery of the coupling algorithms.

Three pieces live here:

* the **Schur containers** — an uncompressed dense container (SPIDO
  role), its out-of-core twin and a hierarchical compressed container
  (HMAT role) presenting the same interface: start from :math:`A_{ss}`,
  take blockwise updates ``S[rows, cols] += alpha * x``
  (``S_i = A_{ss_i} − Z_i``, ``S_{ij} = A_{ss_{ij}} + X_{ij}``) through
  one protocol — ``prepare`` on the worker that computed the block,
  ``commit`` serialized in task order, ``flush`` — factorize and solve.
  The compressed container's ``prepare`` / ``commit`` / ``flush`` are the
  paper's *compressed AXPY* with deferred recompression; on an entrywise
  ``S``, ``prepare`` hands the block on and ``flush`` does nothing.
* the **block pipeline** (:func:`assemble_schur`) both multi-solve and
  multi-factorization run: their block tasks on the parallel runtime,
  the ordered commits, the flushes, the factorization of ``S``.
* the **run context** — couples a memory tracker and a phase timer,
  owns every long-lived object the run allocates (freed in one place when
  the run fails or its factorization is freed), scopes the run's parallel
  runtime and finalises a :class:`~repro.core.result.SolveStats`.

The right-hand-side reduction and back-substitution (common to all four
algorithms, paper eq. (7)) are in :func:`reduce_rhs_and_solve`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Dict, Iterator, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from repro.core.config import SolverConfig
from repro.core.result import SolveStats
from repro.dense.solver import DenseSolver
from repro.dense.triangular import DEFAULT_BLOCK
from repro.fembem.cases import CoupledProblem
from repro.hmatrix.cluster import build_cluster_tree
from repro.hmatrix.factorization import HLUFactorization
from repro.hmatrix.hmatrix import (
    AxpyPlan,
    HMatrix,
    PortableAxpyPlan,
    build_hodlr,
)
from repro.memory.tracker import Allocation, MemoryTracker
from repro.runtime import make_runtime
from repro.sparse.solver import SparseAnalysis, SparseSolver
from repro.utils.timer import PhaseTimer


def make_sparse_solver(config: SolverConfig,
                       tracker: MemoryTracker) -> SparseSolver:
    """The sparse solver ``config`` describes, charging ``tracker``."""
    return SparseSolver(blr=config.blr_config(), tracker=tracker)


class RunContext:
    """One coupled run: its tracker, timer and counters, and every
    long-lived object it allocates.

    The assembly registers what must outlive a statement — the sparse
    factorizations, the Schur container, a dense Schur block, a tracked
    :class:`~repro.memory.tracker.Allocation` — with :meth:`own`, frees
    what dies early with :meth:`free`, and leaves the rest to
    :meth:`close`, which a failed run and a freed factorization both end
    with.  ``algorithm`` is the coupling's name; the compressed variants
    (``dense_backend == "hmat"``) report as ``<algorithm>_compressed``.
    """

    def __init__(self, problem: CoupledProblem, config: SolverConfig,
                 algorithm: str):
        # the run's wall clock (SolveStats.total_time) starts here
        self._t0 = time.perf_counter()
        self.problem = problem
        self.config = config
        if config.dense_backend == "hmat":
            algorithm += "_compressed"
        self.algorithm = algorithm
        self.tracker = config.make_tracker(name=algorithm)
        self.timer = PhaseTimer()
        self.n_sparse_factorizations = 0
        self.n_sparse_solves = 0  # guarded-by: _own_lock
        #: Calls to :meth:`analyse`; every other sparse factorization of
        #: the run reused an analysis.
        self.n_symbolic_analyses = 0
        self.n_workers = config.effective_n_workers
        self.runtime_backend = config.effective_runtime_backend
        #: Filled by the assembly phase when it ran on the parallel
        #: runtime (:mod:`repro.runtime`): per-worker phase breakdown.
        self.runtime_report = None
        # worker threads register what they create (the kept W-block
        # factorization) and concurrent solves count their sparse solves,
        # so the owned set and that count take a lock
        self._own_lock = threading.Lock()
        self._owned: Dict[int, Any] = {}  # guarded-by: _own_lock

    def own(self, obj):
        """Make ``obj`` (anything with ``free()``) the run's; returns it."""
        with self._own_lock:
            self._owned[id(obj)] = obj
        return obj

    def free(self, obj) -> None:
        """Free an owned object before the run ends, and forget it."""
        with self._own_lock:
            self._owned.pop(id(obj), None)
        obj.free()

    def count_sparse_solves(self, n: int) -> None:
        """Add ``n`` sparse solves to the run's count (thread-safe)."""
        with self._own_lock:
            self.n_sparse_solves += n

    def close(self) -> None:
        """Free everything still owned, newest first (idempotent)."""
        with self._own_lock:
            owned, self._owned = self._owned, {}
        for obj in reversed(list(owned.values())):
            obj.free()

    @contextmanager
    def runtime(self, name: str, **kwargs) -> Iterator[Any]:
        """The run's parallel runtime for the ``with`` block; on exit,
        success or error, its report lands in :attr:`runtime_report`."""
        runtime = make_runtime(self.tracker, self.n_workers, name,
                               backend=self.runtime_backend, **kwargs)
        try:
            yield runtime
        finally:
            self.runtime_report = runtime.finalize(self.timer)

    def sparse_solver(self) -> SparseSolver:
        """This run's sparse solver, charging the run's tracker."""
        return make_sparse_solver(self.config, self.tracker)

    def analyse(self, sparse: SparseSolver) -> SparseAnalysis:
        """The analysis of ``A_vv`` that every sparse factorization of the
        run takes, built on the calling thread and counted."""
        self.n_symbolic_analyses += 1
        p = self.problem
        return sparse.analyse(p.a_vv, p.coords_v, timer=self.timer)

    def stats(self, schur_bytes: int, sparse_factor_bytes: int) -> SolveStats:
        p = self.problem
        phases = self.timer.phases
        report = self.runtime_report
        with self._own_lock:
            n_sparse_solves = self.n_sparse_solves
        return SolveStats(
            algorithm=self.algorithm,
            coupling=self.config.coupling_name,
            n_total=p.n_total,
            n_fem=p.n_fem,
            n_bem=p.n_bem,
            phases=phases,
            total_time=time.perf_counter() - self._t0,
            peak_bytes=self.tracker.peak,
            peak_by_category=self.tracker.peak_categories,
            schur_bytes=schur_bytes,
            schur_dense_bytes=p.n_bem * p.n_bem * np.dtype(p.dtype).itemsize,
            sparse_factor_bytes=sparse_factor_bytes,
            n_sparse_factorizations=self.n_sparse_factorizations,
            n_sparse_solves=n_sparse_solves,
            n_symbolic_analyses=self.n_symbolic_analyses,
            n_symbolic_reuses=(
                self.n_sparse_factorizations - self.n_symbolic_analyses
            ),
            n_workers=self.n_workers,
            worker_phases=report.worker_phases if report is not None else {},
            scheduler_wait_seconds=(
                report.scheduler_wait_seconds if report is not None else 0.0
            ),
            runtime_wall_seconds=(
                report.run_wall_seconds if report is not None else 0.0
            ),
            params={
                "n_c": self.config.n_c,
                "n_s_block": self.config.n_s_block,
                "n_b": self.config.n_b,
                "epsilon": self.config.epsilon,
                "sparse_compression": self.config.sparse_compression,
                "n_workers": self.n_workers,
                "runtime_backend": self.runtime_backend,
            },
        )


def _block_index(rows, cols):
    """Index of the block ``rows × cols``: the view when both are slices
    (updated in place), the ``np.ix_`` mesh of two index sets otherwise
    (NumPy copies that block out and back)."""
    if isinstance(rows, slice) and isinstance(cols, slice):
        return rows, cols
    return np.ix_(rows, cols)


class BlockUpdate(NamedTuple):
    """``S[rows, cols] += alpha * x`` on an entrywise ``S``: the block
    itself, owning no bytes (its task keeps ``x`` charged)."""

    alpha: float
    x: np.ndarray
    rows: Any
    cols: Any
    nbytes = 0


class _EntrywiseUpdates:
    """The update protocol of an ``S`` stored entry by entry (in RAM or on
    disk): :meth:`prepare` hands the block on, :meth:`commit` lands it."""

    #: the timer phase the ordered commits run under
    commit_phase = "schur_update"

    def gather_bytes(self, nbytes: int) -> int:
        """Bytes :meth:`prepare` gathers from a block of ``nbytes``: none."""
        return 0

    def prepare(self, alpha, x: np.ndarray, rows, cols,
                timer: PhaseTimer) -> BlockUpdate:
        """``S[rows, cols] += alpha * x``, ready for :meth:`commit`."""
        return BlockUpdate(alpha, x, rows, cols)

    def flush(self) -> None:
        """Nothing is pending on an entrywise ``S``."""

    def flush_window(self, n_s_block: int) -> int:
        """Columns of ``S`` between two flushes: all of them."""
        return self.problem.n_bem


class DenseSchurContainer(_EntrywiseUpdates):
    """Uncompressed Schur complement in a dense buffer (SPIDO role)."""

    def __init__(self, problem: CoupledProblem, config: SolverConfig,
                 tracker: MemoryTracker):
        self.problem = problem
        self.tracker = tracker
        n = problem.n_bem
        itemsize = np.dtype(problem.dtype).itemsize
        self._alloc = tracker.allocate(
            n * n * itemsize, category="schur_store", label="dense Schur S"
        )
        # to_dense returns a fresh array: take it, do not copy it
        # schur-ok: this IS the sanctioned uncompressed container (SPIDO)
        self.s = np.asarray(problem.a_ss_op.to_dense(), dtype=problem.dtype)
        self._fact = None

    def panel(self, lo: int, hi: int):
        """``(rows, cols)`` of ``S`` the multi-solve panel ``lo:hi``
        updates: those columns and every row, as slices."""
        return slice(None), slice(lo, hi)

    def commit(self, update: BlockUpdate) -> None:
        """Plain dense AXPY, in place through the view when ``rows`` and
        ``cols`` are slices."""
        alpha, x, rows, cols = update
        index = _block_index(rows, cols)
        if alpha == 1:
            self.s[index] += x
        elif alpha == -1:
            self.s[index] -= x
        else:
            self.s[index] += alpha * x

    def factorize(self, tracker: MemoryTracker) -> None:
        """Factor ``S`` in its own buffer: the ``schur_store`` charge is
        the factor's only one, and ``S`` reads as factors from here on."""
        self._fact = DenseSolver().factorize(
            self.s, symmetric=self.problem.symmetric
        )

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._fact.solve(b)

    @property
    def stored_bytes(self) -> int:
        """Bytes of the stored Schur representation."""
        return self.s.nbytes

    def free(self) -> None:
        if self._fact is not None:
            self._fact.free()
            self._fact = None
        self.s = None
        self._alloc.free()


class HodlrSchurContainer:
    """Compressed Schur complement in a HODLR structure (HMAT role).

    Updates run the split compressed AXPY: :meth:`prepare` pre-compresses
    a block on a runtime worker and only the cheap :meth:`commit` is
    serialized, appending to per-block
    :class:`~repro.hmatrix.rk.RkAccumulator` batches; :meth:`flush` folds
    them in (one recompression per block) — the owner says when, and
    :meth:`factorize` flushes whatever is still pending.  Tracked sizes
    follow the byte deltas commit and flush return, the pending ones
    under their own ``axpy_accumulator`` category.
    """

    #: the timer phase the ordered commits and the flushes run under
    commit_phase = "schur_compression"

    def __init__(self, problem: CoupledProblem, config: SolverConfig,
                 tracker: MemoryTracker):
        self.problem = problem
        self.config = config
        self.tree = build_cluster_tree(problem.coords_s)
        self._leaf_starts = np.array(
            [leaf.start for leaf in self.tree.leaves()])
        # compressed assembly of A_ss straight from the kernel (ACA); every
        # later rounding of S (AXPY, flush, H-LDLᵀ / H-LU) inherits this ε
        self.s = build_hodlr(
            problem.a_ss_op, self.tree, tol=config.epsilon,
            symmetric=problem.symmetric,
        )
        self._alloc = tracker.allocate(
            self.s.nbytes(), category="schur_store", label="compressed Schur S"
        )
        self._acc_alloc = tracker.allocate(
            0, category="axpy_accumulator",
            label="pending AXPY accumulators of S",
        )
        self._fact: Optional[HLUFactorization] = None
        self._fact_alloc = None

    def panel(self, lo: int, hi: int):
        """``(rows, cols)`` of ``S`` the multi-solve panel ``lo:hi``
        updates, as original indices: the columns at cluster positions
        ``lo:hi`` — contiguous in the tree, so the panel splits into few
        whole quadrant pieces — and the rows the stored blocks read.  A
        lower-stored ``S`` reads nothing above the diagonal leaf of its
        first column; a two-sided one reads every row."""
        perm = self.tree.perm
        first = 0
        if self.s.symmetric:
            starts = self._leaf_starts
            first = starts[np.searchsorted(starts, lo, side="right") - 1]
        return perm[first:], perm[lo:hi]

    def _apply_deltas(self, store_delta: int, pending_delta: int) -> None:
        """Fold commit/flush byte deltas into the tracked allocations."""
        if store_delta:
            self._alloc.resize(self._alloc.nbytes + store_delta)
        if pending_delta:
            self._acc_alloc.resize(self._acc_alloc.nbytes + pending_delta)

    def gather_bytes(self, nbytes: int) -> int:
        """Bytes :meth:`prepare` gathers from a block of ``nbytes``: the
        whole block, in cluster order."""
        return nbytes

    def prepare(self, alpha, x: np.ndarray, rows, cols,
                timer: PhaseTimer) -> AxpyPlan:
        """Pre-compress ``S[rows, cols] += alpha * x`` (thread-safe, no
        mutation; ``rows`` / ``cols`` slices or index sets): the plan owns
        copies of all it needs, so ``x`` may die as soon as it exists."""
        ids = np.arange(self.problem.n_bem)
        with timer.phase("schur_precompress"):
            return self.s.precompress_axpy(alpha, x, ids[rows], ids[cols])

    def commit(self, plan) -> None:
        """Apply a pre-compressed plan (serialized, in task order): an
        :class:`~repro.hmatrix.hmatrix.AxpyPlan` of :meth:`prepare`, or the
        :class:`~repro.hmatrix.hmatrix.PortableAxpyPlan` of a worker
        process (ROADMAP item 5(b) deletes that branch)."""
        if isinstance(plan, PortableAxpyPlan):
            plan = self.s.import_plan(plan)
        self._apply_deltas(*self.s.commit_axpy(plan))

    def flush(self) -> None:
        """Fold every pending accumulator into the structure (idempotent)."""
        self._apply_deltas(*self.s.flush_accumulators())

    def flush_window(self, n_s_block: int) -> int:
        """Columns of ``S`` between two flushes: the paper's ``n_S``."""
        return n_s_block

    def factorize(self, tracker: MemoryTracker) -> None:
        # defensive: factoring with unflushed accumulators would silently
        # drop their updates (algorithms flush explicitly; idempotent)
        self.flush()
        # symmetric systems factor with hierarchical LDLᵀ (the paper's
        # choice for symmetric blocks — half the factor storage of H-LU)
        if self.problem.symmetric:
            from repro.hmatrix.ldlt_factorization import HLDLTFactorization

            self._fact = HLDLTFactorization(self.s)
        else:
            self._fact = HLUFactorization(self.s)
        self._fact_alloc = tracker.allocate(
            self._fact.nbytes(), category="dense_factor",
            label="hierarchical factors of S",
        )

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._fact.solve(b)

    @property
    def stored_bytes(self) -> int:
        return self.s.nbytes()

    def free(self) -> None:
        if self._fact_alloc is not None:
            self._fact_alloc.free()
            self._fact_alloc = None
        self._fact = None
        self.s = None
        self._acc_alloc.free()
        self._alloc.free()


class OocSchurContainer(_EntrywiseUpdates):
    """Out-of-core uncompressed Schur complement (paper §VII future work).

    The dense ``S`` lives on disk (see :mod:`repro.dense.ooc`); only one or
    two column panels are ever resident, so the quadratic dense storage
    stops counting against the node's RAM — at the price of streaming the
    factorization and solves from disk.
    """

    def __init__(self, problem: CoupledProblem, config: SolverConfig,
                 tracker: MemoryTracker):
        from repro.dense.ooc import OutOfCoreDense

        self.problem = problem
        self.config = config
        self.tracker = tracker
        n = problem.n_bem
        self.store = OutOfCoreDense(
            n, problem.dtype, panel_width=max(config.n_c, DEFAULT_BLOCK),
            tracker=tracker,
        )
        # stream A_ss in panel by panel; the full dense A_ss never exists
        all_rows = np.arange(n)
        try:
            for lo, hi in self.store.panel_bounds():
                with tracker.borrow(
                    n * (hi - lo) * np.dtype(problem.dtype).itemsize,
                    category="ooc_panel", label="A_ss assembly panel",
                ):
                    self.store.write_panel(
                        lo, hi,
                        problem.a_ss_op.block(all_rows, np.arange(lo, hi)),
                    )
        except BaseException:
            # a container never handed out removes its file itself
            self.store.close()
            raise

    def panel(self, lo: int, hi: int):
        """``(rows, cols)`` of ``S`` the multi-solve panel ``lo:hi``
        updates: those columns and every row."""
        return np.arange(self.problem.n_bem), np.arange(lo, hi)

    def commit(self, update: BlockUpdate) -> None:
        """Read, update and write back every on-disk panel the block's
        columns touch."""
        alpha, block, rows, cols = update
        n = self.problem.n_bem
        ids = np.arange(n)
        rows, cols = ids[rows], ids[cols]
        itemsize = np.dtype(self.problem.dtype).itemsize
        for lo, hi in self.store.panel_bounds():
            sel = (cols >= lo) & (cols < hi)
            if not sel.any():
                continue
            with self.tracker.borrow(
                n * (hi - lo) * itemsize, category="ooc_panel",
                label="OOC update panel",
            ):
                panel = self.store.read_panel(lo, hi)
                panel[np.ix_(rows, cols[sel] - lo)] += alpha * block[:, sel]
                self.store.write_panel(lo, hi, panel)

    def factorize(self, tracker: MemoryTracker) -> None:
        self.store.factorize_lu_inplace()

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.store.solve(b)

    @property
    def stored_bytes(self) -> int:
        """Bytes of the stored Schur representation (on disk here)."""
        return self.store.disk_bytes

    def free(self) -> None:
        self.store.close()


def make_schur_container(problem: CoupledProblem, config: SolverConfig,
                         tracker: MemoryTracker):
    """Dense, compressed or out-of-core container per ``config.dense_backend``."""
    if config.dense_backend == "hmat":
        return HodlrSchurContainer(problem, config, tracker)
    if config.dense_backend == "spido_ooc":
        return OocSchurContainer(problem, config, tracker)
    return DenseSchurContainer(problem, config, tracker)


def restrict_coupling(a_sv: sp.csr_matrix, rows):
    """``A_sv[rows]`` over its own column support.

    Returns ``(a_rows, wanted)``: ``wanted`` the sorted volume unknowns
    the surface rows ``rows`` couple to and ``a_rows`` the CSR matrix
    ``A_sv[rows][:, wanted]``.  The entries keep their order inside each
    row, so ``a_rows @ y[wanted]`` is ``A_sv[rows] @ y`` bit for bit.
    """
    picked = a_sv[rows]
    reached = np.zeros(a_sv.shape[1], dtype=bool)
    reached[picked.indices] = True
    wanted = np.flatnonzero(reached)
    lookup = np.empty(a_sv.shape[1], dtype=picked.indices.dtype)
    lookup[wanted] = np.arange(len(wanted), dtype=lookup.dtype)
    a_rows = sp.csr_matrix(
        (picked.data, lookup[picked.indices], picked.indptr),
        shape=(picked.shape[0], len(wanted)),
    )
    return a_rows, wanted


def schur_panel(mf, a_sv_t: sp.csc_matrix, a_rows: sp.csr_matrix,
                wanted: np.ndarray, cols, timer: PhaseTimer) -> np.ndarray:
    """``Z[rows, cols]`` of ``Z = A_sv A_vv⁻¹ A_svᵀ`` by one blocked
    sparse solve (``rows`` / ``cols``: a container's :meth:`panel`;
    ``a_rows, wanted = restrict_coupling(a_sv, rows)``).

    The sparse solver is asked for the volume rows ``A_sv[rows]`` reads
    and nothing else: the right-hand side is the CSC panel
    ``A_svᵀ[:, cols]`` (forward sweep pruned to its support) and the
    solution comes back restricted to ``wanted`` (backward sweep pruned
    to their fronts), so the dense ``Y`` is ``len(wanted) × len(cols)``.
    """
    with timer.phase("sparse_solve"):
        y = mf.solve(a_sv_t[:, cols], wanted=wanted)
    with timer.phase("spmm"):
        return a_rows @ y


def prepare_updates(container, alpha, pieces, timer: PhaseTimer,
                    alloc: Allocation) -> list:
    """The worker side of one block task: ``container.prepare`` every
    ``(x, rows, cols)`` piece of the dense block ``alloc`` holds.  Updates
    that own bytes (a compressed ``S`` copies what it needs) let the block
    die here, and ``alloc`` shrinks to them; updates that own none are the
    block itself, which stays charged until the commit."""
    updates = [container.prepare(alpha, x, rows, cols, timer)
               for x, rows, cols in pieces]
    owned = sum(update.nbytes for update in updates)
    if owned:
        alloc.resize(owned)
    return updates


def assemble_schur(ctx: RunContext, container, name: str, tasks,
                   flush_after=frozenset(), *, alpha, pieces,
                   worker_payload, worker_builder=None) -> None:
    """The block pipeline of multi-solve and multi-factorization: run
    ``tasks`` — each returns the :func:`prepare_updates` of its block — on
    the run's parallel runtime, commit their updates in task order (so
    ``S`` is bit-identical for any worker count), flush ``S`` after the
    tasks whose index is in ``flush_after`` and once at the end, then
    factorize ``S``.  The other arguments serve the process adapter.
    """
    # -- process backend adapter (ROADMAP item 5(b) deletes it) -------------
    # Workers prepare against a values-free skeleton of a compressed S
    # (prepare_on_worker) and send plans back, which need no result slab;
    # on an entrywise S their dense block rides a shared-memory slab back,
    # and consume turns it into updates.
    if (ctx.runtime_backend == "process"
            and isinstance(container, HodlrSchurContainer)):
        worker_payload = {**worker_payload,
                          "skeleton": container.s.structure_skeleton()}
        tasks = [replace(task, result_nbytes=0) for task in tasks]

    def consume(task, updates):
        if isinstance(updates, np.ndarray):  # the process adapter
            updates = [container.prepare(alpha, x, rows, cols, ctx.timer)
                       for x, rows, cols in pieces(task, updates)]
        with ctx.timer.phase(container.commit_phase):
            for update in updates:
                container.commit(update)
            if task.index in flush_after:
                container.flush()

    with ctx.runtime(name, worker_payload=worker_payload,
                     worker_builder=worker_builder) as runtime:
        runtime.run(tasks, consume)
        # closes the last window: S carries no pending update into factorize
        with ctx.timer.phase(container.commit_phase):
            container.flush()
        with ctx.timer.phase("dense_factorization"):
            container.factorize(ctx.tracker)


def prepare_on_worker(w, timer: PhaseTimer, alpha, pieces):
    """:func:`prepare_updates` in a worker process, which has no container
    (process backend; ROADMAP item 5(b) deletes it): each piece
    pre-compressed against the skeleton of a compressed ``S`` shipped in
    ``w``, or — on an entrywise ``S`` — the first piece's dense block,
    of which every piece is a view."""
    skeleton = w.get("skeleton")
    if skeleton is None:
        return pieces[0][0]
    plans = []
    for x, rows, cols in pieces:
        before = skeleton.n_panel_compressions
        with timer.phase("schur_precompress"):
            plan = skeleton.precompress_axpy(alpha, x, rows, cols)
        plans.append(HMatrix.export_plan(
            plan, skeleton.n_panel_compressions - before))
    return plans


def _coupled_solve(ctx: RunContext, mf, container, b_v, b_s):
    """One coupled solve through the factored blocks (paper eq. (7))."""
    p = ctx.problem
    with ctx.timer.phase("sparse_solve_rhs"):
        y = mf.solve(b_v)
        ctx.count_sparse_solves(1)
    b_red = b_s - p.a_sv @ y
    with ctx.timer.phase("dense_solve"):
        x_s = container.solve(b_red)
    with ctx.timer.phase("sparse_solve_rhs"):
        x_v = mf.solve(b_v - p.a_sv.T @ x_s)
        ctx.count_sparse_solves(1)
    return x_v, x_s


def reduce_rhs_and_solve(ctx: RunContext, mf, container, b_v, b_s,
                         steps: int):
    """RHS reduction, Schur solve, back-substitution and ``steps`` rounds
    of iterative refinement for the load case ``(b_v, b_s)``.

    ``mf`` is a multifrontal factorization of (at least) the interior
    block ``A_vv``; ``container`` holds the factored Schur complement.
    With ``steps > 0`` the compressed (or otherwise inexact)
    factorizations are used as a preconditioner for iterative refinement
    against the *exact* operator — the residual is evaluated with the
    original sparse blocks and the lazy kernel, never the compressed
    ``S`` — recovering accuracy well below the compression tolerance at
    the cost of a couple of extra solves (the standard production
    companion of low-rank direct solvers).

    Returns ``(x_v, x_s)``.
    """
    p = ctx.problem
    x_v, x_s = _coupled_solve(ctx, mf, container, b_v, b_s)
    for _ in range(steps):
        with ctx.timer.phase("iterative_refinement"):
            r_v = b_v - (p.a_vv @ x_v + p.a_sv.T @ x_s)
            r_s = b_s - (p.a_sv @ x_v + p.a_ss_op.matvec(x_s))
        d_v, d_s = _coupled_solve(ctx, mf, container, r_v, r_s)
        x_v = x_v + d_v
        x_s = x_s + d_s
    return x_v, x_s
