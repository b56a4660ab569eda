"""Repo-specific policy of the invariant checkers.

Everything path-like is matched against the *posix* form of the file path,
by suffix — so the same configuration works whether the suite is invoked
from the repo root (``src/repro/...``) or elsewhere.
"""

from __future__ import annotations

# -- resource-discipline ------------------------------------------------------

#: Method names on a tracker that create a tracked allocation handle.
ALLOC_METHODS = frozenset({"allocate", "acquire", "track_array"})

#: The context-manager form (safe by construction).
BORROW_METHOD = "borrow"

#: A call only counts as an allocation when its receiver mentions a
#: tracker — this keeps ``threading.Lock.acquire`` out of scope.
TRACKER_RECEIVER_HINT = "tracker"

#: Methods whose *tuple* return transfers an allocation handle to the
#: caller: ``data, alloc = solver.take_schur()`` makes the caller the
#: owner of ``alloc``, with the same free-on-every-path obligation as a
#: direct ``tracker.acquire(...)``.
ALLOC_TUPLE_METHODS = frozenset({"take_schur"})

#: Constructors returning an owned workspace arena.  The arena wraps a
#: tracked allocation (charged once, resized in place, recycled between
#: fronts), so the *arena object itself* is the handle: constructing one
#: creates an obligation to ``free()`` it on every path, exactly like a
#: ``tracker.allocate(...)`` handle.
ARENA_CONSTRUCTORS = frozenset({"FrontArena"})

#: Arena methods that *recycle* the workspace without releasing it —
#: ``ensure`` (grow capacity), ``frame`` (zeroed front view), ``reset``
#: (between refactorizations).  Calling any of them after ``free()`` is a
#: use-after-free; calling them on a live handle keeps it live (they do
#: not transfer ownership).
ARENA_KEEPALIVE_METHODS = frozenset({"ensure", "frame", "reset"})

# -- lock-discipline ----------------------------------------------------------

#: Global lock hierarchy, outermost first.  A lock may only be acquired
#: (lexically) while holding locks that appear *earlier* in this list.
#: These attribute names are unique across the codebase by convention.
LOCK_HIERARCHY = (
    "_factor_lock",  # repro.serving.factor_cache.FactorCache (entry map)
    "_fact_lock",    # repro.core.factorized.CoupledFactorization (solve/free)
    "_admit_cond",   # repro.runtime.scheduler.ParallelRuntime (turnstile)
    "_timer_lock",   # repro.runtime.scheduler.ParallelRuntime (timer map)
    "_cond",         # repro.memory.tracker.MemoryTracker (bookkeeping)
    "_lock",         # repro.utils.timer.PhaseTimer (phase accumulator)
    "_cache_lock",   # repro.sparse.symbolic_cache.SymbolicCache (leaf)
    "_stats_lock",   # repro.sparse.solver.SparseSolver counters (leaf)
    "_axpy_lock",    # repro.hmatrix.hmatrix.HMatrix AXPY counters (leaf)
)
# The process execution backend (repro.runtime.process_backend) adds no
# entry here on purpose: its coordinator is single-threaded and its
# workers are single-threaded processes, so the only locks it ever takes
# are the tracker's ``_cond`` and the timers' ``_lock`` — both already
# ranked above.  Keep it that way; a new lock in that module must be
# appended to the hierarchy, not waived.

#: Methods exempt from the guarded-attribute rule: construction happens
#: before the object is shared.
LOCK_EXEMPT_METHODS = frozenset({"__init__", "__new__"})

# -- dense-schur --------------------------------------------------------------

#: Path suffixes where densification is sanctioned wholesale: the
#: hierarchical compression library itself (its dense conversions are
#: bounded by leaf/block size) and the uncompressed reference couplings.
SCHUR_MODULE_WHITELIST = (
    "repro/hmatrix/",
    "repro/core/baseline.py",
    "repro/core/advanced.py",
)

#: Identifiers that denote a Schur-typed object.  Exact matches only —
#: ``schur_vars`` (an index array) must not trip the guard.
SCHUR_IDENTIFIERS = frozenset({
    "s", "schur", "a_ss", "a_ss_op", "s_i", "s_ij", "schur_block", "s_dense",
})

#: ``X.n_bem``-style attribute spelling of the dense-Schur dimension.
SCHUR_DIM_ATTRS = frozenset({"n_bem"})

# -- axpy-discipline ----------------------------------------------------------

#: Constructors returning a deferred-recompression accumulator.  The
#: accumulator holds *pending* low-rank updates that are invisible to the
#: flushed factors until ``flush()`` folds them in — constructing one
#: creates an obligation to flush (or hand the accumulator off) on every
#: path, or the updates it batches are silently dropped.
AXPY_ACCUMULATOR_CONSTRUCTORS = frozenset({"RkAccumulator"})

#: Methods that stage deferred updates on a receiver (a compressed Schur
#: container or an HMatrix): the receiver may now carry pending state.
AXPY_COMMIT_METHODS = frozenset({
    "commit", "commit_axpy",
    "precompress_subtract", "precompress_add", "precompress_axpy",
})

#: Methods that fold pending state in (clear the obligation).
AXPY_FLUSH_METHODS = frozenset({"flush", "flush_accumulators"})

#: Factorize entry points that silently drop pending accumulator state —
#: a flush on the same receiver must precede them lexically.
AXPY_FACTORIZE_METHODS = frozenset({"factorize"})

# -- pickle-safety (process-backend kernels) ----------------------------------

#: ``PanelTask`` keyword arguments that name a function executed in a
#: worker *process*: the value must resolve to a module-level function.
PICKLE_ENTRY_KWARGS = frozenset({"kernel", "worker_builder"})

#: Identifier substrings that mark a value as process-unsafe when it is
#: captured by (or passed to) a process-executed kernel: locks, condition
#: variables, trackers, executors/pools, open slabs, futures, threads and
#: runtime objects either cannot pickle at all or pickle into a
#: meaningless per-process copy.
PICKLE_UNSAFE_HINTS = (
    "lock", "cond", "tracker", "executor", "pool", "slab", "future",
    "thread", "runtime",
)

# -- blocking-under-lock -------------------------------------------------------

#: Method names that block the calling thread until another thread makes
#: progress.  Calling one while holding any :data:`LOCK_HIERARCHY` lock
#: is the deadlock shape the process backend's drain-and-retry admission
#: exists to avoid: the progress the caller waits for may itself need the
#: held lock.
BLOCKING_METHODS = frozenset({"wait", "wait_for", "result", "join"})

#: Receiver-name substrings that make a ``submit``/``map``/``shutdown``
#: call a pool interaction (pool submission can block on a saturated work
#: queue and its callbacks may take scheduler locks).
POOL_RECEIVER_HINTS = ("pool", "executor")

#: Receiver-name substrings identifying future/thread objects so that a
#: bare ``x.join()`` on a string or path does not trip the checker.
BLOCKING_RECEIVER_HINTS = (
    "future", "fut", "thread", "worker", "proc", "cond", "event", "queue",
    "_done", "pending",
)

#: Path fragments (posix form) of the asyncio serving layer, where BLK003
#: applies: an ``async def`` body must never call thread-blocking work
#: directly — a factorization/panel ``solve``, a concurrent-futures
#: ``result``/``join``, a blocking tracker ``acquire``, a factor-cache
#: ``get_or_build`` or a threading ``wait`` stalls the event loop (and
#: with it every lingering batch timer and every other connection).
#: Route the call through ``loop.run_in_executor`` instead; nested sync
#: ``def`` bodies (the executor thunks) are exempt by construction.
ASYNC_SERVING_PATH_FRAGMENTS = ("repro/serving/",)

#: Method names that block the calling thread and are therefore banned
#: (non-awaited) directly inside serving-layer ``async def`` bodies.
ASYNC_BLOCKING_METHODS = frozenset({
    "solve", "get_or_build", "result", "join", "wait", "wait_for",
    "acquire",
})

# -- slab-lifecycle ------------------------------------------------------------

#: Pool methods that check a shared-memory slab out (the returned name /
#: handle must be returned or closed on every path).  Only calls whose
#: receiver matches :data:`SLAB_RECEIVER_HINTS` count, so the tracker's
#: ``acquire`` stays in resource-discipline's jurisdiction.
SLAB_CHECKOUT_METHODS = frozenset({"acquire", "checkout"})

#: Pool methods that return a checked-out slab (the slab travels as the
#: first argument: ``pool.release(name)``).
SLAB_RETURN_METHODS = frozenset({"release", "checkin"})

#: Receiver-name substrings identifying a slab pool.
SLAB_RECEIVER_HINTS = ("slab",)

#: Constructors that open an OS-level shared-memory handle; every
#: instance must reach ``.close()`` (attach) or ``.unlink()`` (owner) on
#: all paths or the segment outlives the process.
SHM_CONSTRUCTORS = frozenset({"SharedMemory"})

#: Methods that settle a shared-memory handle.
SHM_RELEASE_METHODS = frozenset({"close", "unlink"})

# -- determinism ---------------------------------------------------------------

#: Functions of the :mod:`random` module (and legacy ``np.random``)
#: that draw from hidden global state: their sequence depends on import
#: order and thread interleaving, so results are not reproducible across
#: backends.  Seeded generators (``np.random.default_rng(seed)``) are the
#: sanctioned alternative.
DET_GLOBAL_RANDOM_MODULES = frozenset({"random"})
DET_LEGACY_NP_RANDOM_FUNCS = frozenset({
    "rand", "randn", "random", "randint", "choice", "permutation",
    "shuffle", "seed", "standard_normal", "uniform",
})

#: Wall-clock sources; ``time.perf_counter``/``monotonic`` are fine for
#: timing but wall-clock values must not flow into kernels or ordered
#: commits.
DET_WALLCLOCK_FUNCS = frozenset({"time", "time_ns", "ctime", "localtime"})

# -- dtype-safety -------------------------------------------------------------

#: Path suffixes of the kernel modules where dtype discipline is enforced.
DTYPE_KERNEL_PREFIXES = (
    "repro/core/",
    "repro/dense/",
    "repro/hmatrix/",
    "repro/memory/",
    "repro/runtime/",
    "repro/sparse/",
)

#: Constructors that silently default to float64 without ``dtype=``.
DTYPE_CONSTRUCTORS = frozenset({"zeros", "empty", "ones", "full"})

#: Spellings of a hard-coded real floating dtype.
REAL_DTYPE_LITERALS = frozenset({
    "float", "np.float32", "np.float64", "numpy.float32", "numpy.float64",
    "'float32'", "'float64'", '"float32"', '"float64"',
})
