"""Repo-specific static invariant checkers (``python -m tools.analysis``).

Two checkers are left: the ones that, seeded with a fault, caught
something the tier-1 tests, the tracker-balance recorder and the lock
watchdog all miss (``docs/static_analysis.md`` has the audit, one row per
historical bug and per rule code).

``lock-discipline``
    Attributes annotated ``# guarded-by: <lock>`` may only be touched
    while the declared lock is held, and nested lock acquisitions must
    follow the declared hierarchy.  A race is rare enough that no test
    reliably sees it.

``dense-schur``
    The Schur complement ``S`` (and ``A_ss``) must never be fully
    materialised outside the sanctioned uncompressed paths — no
    ``.to_dense()``, ``.toarray()``, ``np.asarray`` or full
    ``(n_bem, n_bem)`` allocations on Schur-typed objects outside the
    whitelist.  Such a copy is untracked, so no accounting test sees it.

The suite runs inside tier-1 (``tests/test_static_analysis.py``).  Its
runtime companions (:mod:`tools.analysis.watchdog`) run around the tests:
every ``MemoryTracker`` created during a test must end it balanced, and
the lock-acquisition graph of the concurrency tests must stay acyclic.
"""

from tools.analysis.base import Checker, Finding, ModuleSource
from tools.analysis.locks import LockDisciplineChecker
from tools.analysis.schur import DenseSchurChecker

#: All checkers, in reporting order.
ALL_CHECKERS = (
    LockDisciplineChecker,
    DenseSchurChecker,
)

__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "DenseSchurChecker",
    "Finding",
    "LockDisciplineChecker",
    "ModuleSource",
]
