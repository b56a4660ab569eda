"""Repo-specific policy of the invariant checkers.

Everything path-like is matched against the *posix* form of the file path,
by suffix — so the same configuration works whether the suite is invoked
from the repo root (``src/repro/...``) or elsewhere.
"""

from __future__ import annotations

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
    "_axpy_lock",    # repro.hmatrix.hmatrix.HMatrix AXPY counters (leaf)
    "_own_lock",     # repro.core.schur_tools.RunContext owned set (leaf)
)
# The process execution backend (repro.runtime.process_backend) adds no
# entry here on purpose: its coordinator is single-threaded and its
# workers are single-threaded processes, so the only locks it ever takes
# are the tracker's ``_cond`` and the timers' ``_lock`` — both already
# ranked above.  A new lock anywhere must be appended to the hierarchy,
# not waived.  lock-discipline checks the ranking on lexically nested
# ``with`` blocks; an inversion split across functions or threads shows
# up as a cycle in the runtime watchdog (tools/analysis/watchdog.py).

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
