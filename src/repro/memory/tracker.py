"""Logical allocation tracker with peak accounting and a hard limit.

Solvers call :meth:`MemoryTracker.allocate` (or the convenience
:meth:`MemoryTracker.track_array`) for every buffer whose lifetime matters
to the memory analysis, and free the returned handle when the buffer dies.
The tracker is deliberately *logical*: it counts the bytes the algorithm
needs, independently of interpreter overhead or allocator behaviour, which
makes footprints deterministic and machine independent — exactly the
quantities the paper's memory plots reason about.

The tracker is **thread-safe**: every charge, release and resize happens
under one internal condition variable, so the parallel runtime
(:mod:`repro.runtime`) can share a single tracker between workers.  On
top of the raising :meth:`allocate` the tracker offers a *blocking*
:meth:`acquire` used for budget-aware admission control: instead of
raising :class:`MemoryLimitExceeded` when the limit is reached while
other acquired allocations are outstanding, the caller sleeps until
enough budget is released.  An acquisition may also *reserve headroom* —
bytes the holder will charge later through nested allocations (solver
workspaces) — which gates further admissions without being charged
itself.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

import numpy as np

from repro.utils.errors import MemoryLimitExceeded

_UNITS = ["B", "KiB", "MiB", "GiB", "TiB"]

#: Well-known allocation categories and what they account for.  The set is
#: open (any string is a valid category); this map documents the vocabulary
#: the solvers and the reporting layer share.  ``front_arena`` is special:
#: one allocation per arena, charged once at construction and *resized*
#: as the reusable front buffer grows — per-front workspaces are views
#: into it and carry no charge of their own.
CATEGORY_DESCRIPTIONS: Dict[str, str] = {
    "front_arena": "reusable multifrontal front workspace (charged once, "
                   "resized to the peak front, recycled across the fronts "
                   "of one factorization)",
    "sparse_factor": "stored frontal factor panels",
    "update_stack": "multifrontal contribution blocks awaiting extend-add",
    "schur_dense": "dense Schur block returned by factorize_schur or "
                   "schur_complement",
    "schur_store": "assembled Schur container (dense or compressed)",
    "schur_block": "admitted multi-factorization W-block budget",
    "solve_panel": "blocked solve panels (Y_i / Z_i)",
    "solve_workspace": "forward/backward sweep work vector (panel-bounded)",
    "spmm_panel": "dense A_sv Y product of the baseline coupling",
    "dense_factor": "hierarchical (H-LU / H-LDLᵀ) factors of a compressed "
                    "S; a dense S is factored in its schur_store buffer",
    "axpy_accumulator": "pending low-rank factors awaiting deferred "
                        "recompression (RkAccumulator batches)",
    "factor_cache": "cached numeric factorizations held by the serving "
                    "layer's FactorCache (charged at entry peak_bytes, "
                    "released on LRU eviction)",
}


def fmt_bytes(nbytes: float) -> str:
    """Human-readable byte count (binary units)."""
    value = float(nbytes)
    for unit in _UNITS:
        if abs(value) < 1024.0 or unit == _UNITS[-1]:
            if unit == "B":
                return f"{value:.0f} {unit}"
            return f"{value:.2f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


class Allocation:
    """Handle for one tracked allocation.  Free exactly once via :meth:`free`."""

    __slots__ = ("tracker", "nbytes", "category", "label", "_live",
                 "_headroom", "_admitted")

    def __init__(self, tracker: "MemoryTracker", nbytes: int, category: str,
                 label: str, headroom: int = 0, admitted: bool = False) -> None:
        self.tracker = tracker
        self.nbytes = int(nbytes)
        self.category = category
        self.label = label
        self._headroom = int(headroom)
        self._admitted = admitted
        self._live = True

    @property
    def live(self) -> bool:
        return self._live

    def free(self) -> None:
        """Release this allocation.  Freeing twice is a silent no-op.

        The live-flag flip happens under the tracker's condition variable:
        two threads racing ``free()`` on the same handle must not both
        pass the check and double-release the charge (which would corrupt
        ``_n_admitted`` / ``_reserved_headroom`` or trip the underflow
        assertion).  Exactly one caller performs the release.
        """
        with self.tracker._cond:
            if not self._live:
                return
            self._live = False
            self.tracker._release(self)

    def resize(self, new_nbytes: int) -> None:
        """Adjust the tracked size in place (e.g. after recompression)."""
        if not self._live:
            raise RuntimeError("cannot resize a freed allocation")
        self.tracker._resize(self, int(new_nbytes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self._live else "freed"
        return f"Allocation({fmt_bytes(self.nbytes)}, {self.category!r}, {state})"


class MemoryTracker:
    """Tracks logical allocations; optionally enforces a hard byte limit.

    Parameters
    ----------
    limit_bytes:
        When set, an allocation pushing usage above the limit raises
        :class:`MemoryLimitExceeded` — the reproduction analog of the
        paper's out-of-memory failures.  Blocking :meth:`acquire` calls
        wait instead of raising while other acquisitions are outstanding.
    name:
        Cosmetic name used in reports.
    """

    def __init__(self, limit_bytes: Optional[int] = None, name: str = "") -> None:
        if limit_bytes is not None and limit_bytes <= 0:
            raise ValueError("limit_bytes must be positive or None")
        self.name = name
        self.limit_bytes = limit_bytes
        self._in_use = 0  # guarded-by: _cond
        self._peak = 0  # guarded-by: _cond
        self._by_category: Dict[str, int] = {}  # guarded-by: _cond
        self._peak_by_category: Dict[str, int] = {}  # guarded-by: _cond
        self._n_allocations = 0  # guarded-by: _cond
        # all bookkeeping happens under this condition variable; the RLock
        # lets acquire() call _charge() while already holding it
        self._cond = threading.Condition(threading.RLock())
        # budget-aware admission state: count of live acquire() handles and
        # the headroom bytes they reserved for nested charges
        self._n_admitted = 0  # guarded-by: _cond
        self._reserved_headroom = 0  # guarded-by: _cond
        self._wait_seconds = 0.0  # guarded-by: _cond

    # -- internal bookkeeping ------------------------------------------------
    def _charge(self, nbytes: int, category: str, label: str) -> None:
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        with self._cond:
            if (
                self.limit_bytes is not None
                and self._in_use + nbytes > self.limit_bytes
            ):
                raise MemoryLimitExceeded(
                    nbytes, self._in_use, self.limit_bytes, label
                )
            self._in_use += nbytes
            self._peak = max(self._peak, self._in_use)
            cur = self._by_category.get(category, 0) + nbytes
            self._by_category[category] = cur
            self._peak_by_category[category] = max(
                self._peak_by_category.get(category, 0), cur
            )

    def _uncharge(self, nbytes: int, category: str) -> None:
        with self._cond:
            new_total = self._in_use - nbytes
            new_cat = self._by_category.get(category, 0) - nbytes
            if new_total < 0 or new_cat < 0:
                raise AssertionError(
                    f"memory accounting underflow: releasing {nbytes} B from "
                    f"category {category!r} would leave total={new_total} B, "
                    f"category={new_cat} B (double free or a charge recorded "
                    f"under a different category)"
                )
            self._in_use = new_total
            self._by_category[category] = new_cat
            self._cond.notify_all()

    def _release(self, alloc: Allocation) -> None:
        with self._cond:
            self._uncharge(alloc.nbytes, alloc.category)
            if alloc._admitted:
                self._n_admitted -= 1
                self._reserved_headroom -= alloc._headroom
            self._cond.notify_all()

    def _resize(self, alloc: Allocation, new_nbytes: int) -> None:
        with self._cond:
            delta = new_nbytes - alloc.nbytes
            if delta > 0:
                self._charge(delta, alloc.category, alloc.label)
            elif delta < 0:
                self._uncharge(-delta, alloc.category)
            alloc.nbytes = new_nbytes

    # -- public API ----------------------------------------------------------
    def allocate(self, nbytes: int, category: str = "general", label: str = "") -> Allocation:
        """Register ``nbytes`` of logical memory; returns a handle to free."""
        with self._cond:
            self._charge(int(nbytes), category, label)
            self._n_allocations += 1
        return Allocation(self, int(nbytes), category, label)

    def acquire(
        self,
        nbytes: int,
        category: str = "workspace",
        label: str = "",
        headroom: int = 0,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> Allocation:
        """Admission-controlled allocation for parallel workers.

        Charges ``nbytes`` like :meth:`allocate`, and additionally
        *reserves* ``headroom`` bytes for the nested charges the holder
        will make (solver workspaces); the reservation gates further
        admissions but is never itself charged.

        While **other** acquisitions are outstanding and the limit would
        be exceeded, the call blocks until budget frees up instead of
        raising — so a pool of workers degrades to (partial) serialisation
        under a tight limit rather than failing.  When no acquisition is
        outstanding the call proceeds unconditionally, reproducing exactly
        the serial raising semantics: a task too large for the limit on
        its own still raises :class:`MemoryLimitExceeded`.
        """
        nbytes = int(nbytes)
        headroom = int(headroom)
        if headroom < 0:
            raise ValueError("headroom must be non-negative")
        # deadline semantics: ``timeout`` bounds the *total* blocked time.
        # Each wait iteration sleeps only for the remaining share — a
        # notify that does not free enough budget must not restart the
        # clock, or a caller could block unboundedly past its timeout.
        deadline = (
            None if timeout is None else time.perf_counter() + float(timeout)
        )
        with self._cond:
            while (
                self.limit_bytes is not None
                and self._n_admitted > 0
                and (
                    self._in_use + self._reserved_headroom
                    + nbytes + headroom > self.limit_bytes
                )
            ):
                if not block:
                    raise MemoryLimitExceeded(
                        nbytes, self._in_use, self.limit_bytes, label
                    )
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0.0:
                        raise MemoryLimitExceeded(
                            nbytes, self._in_use, self.limit_bytes,
                            f"{label} (admission timed out after {timeout}s)",
                        )
                t0 = time.perf_counter()
                self._cond.wait(remaining)
                self._wait_seconds += time.perf_counter() - t0
            self._charge(nbytes, category, label)
            self._n_allocations += 1
            self._n_admitted += 1
            self._reserved_headroom += headroom
        return Allocation(self, nbytes, category, label,
                          headroom=headroom, admitted=True)

    def track_array(self, array: np.ndarray, category: str = "general", label: str = "") -> Allocation:
        """Register an ndarray's buffer size."""
        return self.allocate(array.nbytes, category, label)

    @contextmanager
    def borrow(self, nbytes: int, category: str = "workspace", label: str = "") -> Iterator[Allocation]:
        """Temporarily charge ``nbytes`` for the duration of a ``with`` block."""
        alloc = self.allocate(nbytes, category, label)
        try:
            yield alloc
        finally:
            alloc.free()

    @property
    def in_use(self) -> int:
        """Currently tracked bytes."""
        with self._cond:
            return self._in_use

    @property
    def peak(self) -> int:
        """High-water mark of tracked bytes since creation / last reset."""
        with self._cond:
            return self._peak

    @property
    def n_allocations(self) -> int:
        with self._cond:
            return self._n_allocations

    @property
    def admission_wait_seconds(self) -> float:
        """Total time :meth:`acquire` callers spent blocked on the limit."""
        with self._cond:
            return self._wait_seconds

    def category_in_use(self, category: str) -> int:
        with self._cond:
            return self._by_category.get(category, 0)

    def category_peak(self, category: str) -> int:
        with self._cond:
            return self._peak_by_category.get(category, 0)

    @property
    def categories(self) -> Dict[str, int]:
        """Copy of the current per-category usage (non-zero entries)."""
        with self._cond:
            return {k: v for k, v in self._by_category.items() if v != 0}

    @property
    def peak_categories(self) -> Dict[str, int]:
        """Copy of the per-category peaks."""
        with self._cond:
            return dict(self._peak_by_category)

    def reset_peak(self) -> None:
        """Reset peaks to the current usage."""
        with self._cond:
            self._peak = self._in_use
            self._peak_by_category = {
                k: v for k, v in self._by_category.items() if v != 0
            }

    def assert_all_freed(self) -> None:
        """Raise ``AssertionError`` if any tracked bytes are still live.

        Used by the test suite to detect accounting leaks in solvers.
        """
        with self._cond:
            if self._in_use != 0:
                leaks = {k: v for k, v in self._by_category.items() if v != 0}
                raise AssertionError(
                    f"memory tracker {self.name!r} still has {self._in_use} B live: {leaks}"
                )

    def report(self) -> str:
        """Multi-line human-readable usage report."""
        with self._cond:
            lines = [
                f"MemoryTracker {self.name!r}: in use {fmt_bytes(self._in_use)}, "
                f"peak {fmt_bytes(self._peak)}"
                + (
                    f", limit {fmt_bytes(self.limit_bytes)}"
                    if self.limit_bytes is not None
                    else ""
                )
            ]
            for category in sorted(self._peak_by_category):
                lines.append(
                    f"  {category:<24} peak"
                    f" {fmt_bytes(self._peak_by_category[category]):>12}"
                    f"  now {fmt_bytes(self._by_category.get(category, 0)):>12}"
                )
            return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._cond:
            return (
                f"MemoryTracker(in_use={fmt_bytes(self._in_use)}, "
                f"peak={fmt_bytes(self._peak)}, limit="
                f"{fmt_bytes(self.limit_bytes) if self.limit_bytes else None})"
            )
