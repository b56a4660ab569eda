"""Numeric-factor cache: live ``CoupledFactorization`` objects by key.

The paper's industrial regime is many solves against few factorizations;
this cache keeps whole **numeric factorizations** alive across
*requests*.  Four disciplines:

* **keying** — :func:`system_fingerprint` digests the patterns
  (:func:`pattern_fingerprint`, values-blind) *and* the values of both
  sparse blocks, the point coordinates (:func:`coords_digest`), the
  surface operator's structural key and the factorization-relevant
  ``SolverConfig`` fields, so the key moves exactly when the factors do;
* **exactly-once construction** — concurrent misses on one key build the
  factorization once; losers wait on a per-key latch *outside* the cache
  lock (the build itself also runs outside the lock, so lookups of other
  entries never stall behind a multi-second factorization);
* **thread safety** — every map access happens under ``_factor_lock``;
  the entries themselves are concurrency-safe per the
  :class:`~repro.core.factorized.CoupledFactorization` state machine
  (a solve racing an eviction completes or raises
  :class:`~repro.utils.FactorizationFreed`);
* **budgeted LRU eviction** — each stored entry charges its
  ``peak_bytes`` against a dedicated :class:`~repro.memory.MemoryTracker`
  under the ``factor_cache`` category; a miss that does not admit evicts
  least-recently-used entries until it does (or until the cache is empty,
  when the tracker's :class:`~repro.utils.MemoryLimitExceeded` propagates
  — the entry alone exceeds the whole budget).
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro.core.config import SolverConfig
from repro.core.factorized import CoupledFactorization
from repro.fembem.cases import CoupledProblem
from repro.memory.tracker import Allocation, MemoryTracker
from repro.utils.errors import MemoryLimitExceeded

#: Tracker category the cache charges entry peaks under.
FACTOR_CACHE_CATEGORY = "factor_cache"

#: ``SolverConfig`` fields excluded from :func:`system_fingerprint`:
#: execution-only knobs that are guaranteed (and tested) not to change
#: the factor bytes.
_FINGERPRINT_EXCLUDED_FIELDS = frozenset({
    "n_workers",            # bit-identical by the runtime's ordered commit
    "runtime_backend",      # bit-identical across thread/process backends
    "memory_limit",         # affects admission, never values
})


def pattern_fingerprint(a: sp.spmatrix) -> str:
    """Digest of a sparse matrix *pattern* (shape + indptr/indices).

    Values are deliberately excluded (:func:`system_fingerprint` digests
    them separately).  Index arrays are widened to a fixed dtype so
    int32/int64 representations of the same pattern agree.
    """
    a = a.tocsr()
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((a.shape, a.nnz)).encode())
    h.update(np.ascontiguousarray(a.indptr, dtype=np.int64))
    h.update(np.ascontiguousarray(a.indices, dtype=np.int64))
    return h.hexdigest()


def coords_digest(coords: Optional[np.ndarray]) -> bytes:
    """Digest of the point coordinates feeding the geometric ordering."""
    if coords is None:
        return b"none"
    c = np.ascontiguousarray(coords, dtype=np.float64)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(c.shape).encode())
    h.update(c)
    return h.digest()


def config_fingerprint_fields(config: SolverConfig) -> Dict[str, Any]:
    """The ``SolverConfig`` fields that participate in the system key."""
    fields = dataclasses.asdict(config)
    return {k: v for k, v in sorted(fields.items())
            if k not in _FINGERPRINT_EXCLUDED_FIELDS}


def system_fingerprint(problem: CoupledProblem, algorithm: str,
                       config: SolverConfig) -> str:
    """Digest identifying one numeric factorization of ``problem``.

    Patterns *and values* of both sparse blocks, the point coordinates,
    the surface operator's structural key, the coupling algorithm and
    the factorization-relevant config fields all fold in; two problems
    agreeing on all of them produce byte-identical factors, so sharing
    the cached entry is sound.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(pattern_fingerprint(problem.a_vv).encode())
    h.update(pattern_fingerprint(problem.a_sv).encode())
    for block in (problem.a_vv, problem.a_sv):
        data = np.ascontiguousarray(block.tocsr().data)
        h.update(repr((data.dtype.str, data.shape)).encode())
        h.update(data)
    h.update(coords_digest(problem.coords_v))
    h.update(coords_digest(problem.coords_s))
    h.update(repr(problem.a_ss_op.cache_key()).encode())
    h.update(repr((algorithm, np.dtype(problem.dtype).str)).encode())
    h.update(repr(config_fingerprint_fields(config)).encode())
    return h.hexdigest()


class _BuildLatch:
    """Per-key exactly-once gate: losers wait, the winner publishes."""

    __slots__ = ("event", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.error: Optional[BaseException] = None


class _Entry:
    """One cached factorization plus its budget charge."""

    __slots__ = ("value", "alloc", "nbytes")

    def __init__(self, value: CoupledFactorization, alloc: Allocation,
                 nbytes: int) -> None:
        self.value = value
        self.alloc = alloc
        self.nbytes = nbytes


class CacheResult:
    """Outcome of :meth:`FactorCache.get_or_build`."""

    __slots__ = ("key", "entry", "hit", "evictions")

    def __init__(self, key: str, entry: CoupledFactorization, hit: bool,
                 evictions: int) -> None:
        self.key = key
        self.entry = entry
        self.hit = hit
        self.evictions = evictions


class FactorCache:
    """Thread-safe LRU cache of live coupled factorizations.

    Parameters
    ----------
    max_entries:
        Entry-count cap (LRU beyond it), independent of the byte budget.
    budget_bytes:
        Byte budget enforced through a dedicated tracker; ``None`` means
        unlimited (the entry-count cap still applies).
    """

    def __init__(self, max_entries: int,
                 budget_bytes: Optional[int] = None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self.tracker = MemoryTracker(limit_bytes=budget_bytes,
                                     name="factor_cache")
        self._factor_lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()  # guarded-by: _factor_lock
        self._pending: Dict[str, _BuildLatch] = {}  # guarded-by: _factor_lock
        self._hits = 0  # guarded-by: _factor_lock
        self._misses = 0  # guarded-by: _factor_lock
        self._evictions = 0  # guarded-by: _factor_lock
        self._builds = 0  # guarded-by: _factor_lock

    # -- the one way in --------------------------------------------------------
    def get_or_build(
        self, key: str, build: Callable[[], CoupledFactorization],
    ) -> CacheResult:
        """Return the cached entry for ``key``, building it exactly once.

        Concurrent callers missing on the same key block on a per-key
        latch while a single builder runs ``build()`` (outside the cache
        lock); they then share the winner's entry.  A build failure
        propagates to every waiter.  On a miss under a full budget, LRU
        entries are evicted until the new entry's ``peak_bytes`` admits.
        """
        while True:
            with self._factor_lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._hits += 1
                    self._entries.move_to_end(key)
                    return CacheResult(key, entry.value, True, 0)
                latch = self._pending.get(key)
                if latch is None:
                    latch = _BuildLatch()
                    self._pending[key] = latch
                    break  # this thread builds
            latch.event.wait()
            if latch.error is not None:
                raise latch.error
            # else: loop back and take the published entry (or rebuild
            # if a tiny budget already evicted it again)
        return self._build_and_publish(key, latch, build)

    def _build_and_publish(self, key: str, latch: _BuildLatch,
                           build: Callable[[], CoupledFactorization],
                           ) -> CacheResult:
        try:
            value = build()
            nbytes = int(value.peak_bytes)
            alloc, evictions = self._admit(nbytes, key, value)
        except BaseException as exc:
            with self._factor_lock:
                self._pending.pop(key, None)
                self._misses += 1
                latch.error = exc
            latch.event.set()
            raise
        with self._factor_lock:
            self._misses += 1
            self._builds += 1
            self._entries[key] = _Entry(value, alloc, nbytes)
            self._pending.pop(key, None)
            while len(self._entries) > self.max_entries:
                self._evict_oldest_locked()
                evictions += 1
        latch.event.set()
        return CacheResult(key, value, False, evictions)

    def _admit(self, nbytes: int, key: str,
               value: CoupledFactorization) -> tuple:
        """Charge ``nbytes``, evicting LRU entries until it fits."""
        evictions = 0
        with self._factor_lock:
            while True:
                try:
                    alloc = self.tracker.allocate(
                        nbytes, category=FACTOR_CACHE_CATEGORY, label=key,
                    )
                    return alloc, evictions
                except MemoryLimitExceeded:
                    if not self._entries:
                        # the new entry alone exceeds the whole budget:
                        # nothing left to evict — release the freshly
                        # built factors and let the caller see the error
                        value.free()
                        raise
                    self._evict_oldest_locked()
                    evictions += 1

    # lock-ok: "_locked" suffix contract — every caller holds _factor_lock
    def _evict_oldest_locked(self) -> None:
        """Drop the LRU entry (callers hold ``_factor_lock``).

        The budget charge is released immediately; the factorization's
        own deferred-free state machine keeps in-flight solves alive
        until they drain, so eviction never corrupts a racing solve.
        """
        _, entry = self._entries.popitem(last=False)
        entry.alloc.free()
        entry.value.free()
        self._evictions += 1

    # -- lookups ---------------------------------------------------------------
    def lookup(self, key: str) -> Optional[CoupledFactorization]:
        """The live entry for ``key`` (LRU-touched), or None."""
        with self._factor_lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry.value

    def __len__(self) -> int:
        with self._factor_lock:
            return len(self._entries)

    def keys(self) -> list:
        """Current keys in LRU order (oldest first)."""
        with self._factor_lock:
            return list(self._entries)

    # -- teardown --------------------------------------------------------------
    def evict(self, key: str) -> bool:
        """Explicitly drop one entry; True when it existed."""
        with self._factor_lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            entry.alloc.free()
            entry.value.free()
            self._evictions += 1
            return True

    def clear(self) -> None:
        """Evict everything; the tracker balance returns to zero."""
        with self._factor_lock:
            while self._entries:
                self._evict_oldest_locked()

    # -- observability ---------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._factor_lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "builds": self._builds,
                "evictions": self._evictions,
                "bytes_in_use": self.tracker.category_in_use(
                    FACTOR_CACHE_CATEGORY
                ),
                "bytes_peak": self.tracker.category_peak(
                    FACTOR_CACHE_CATEGORY
                ),
                "budget_bytes": self.tracker.limit_bytes,
            }

    @property
    def hits(self) -> int:
        with self._factor_lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._factor_lock:
            return self._misses

    @property
    def evictions(self) -> int:
        with self._factor_lock:
            return self._evictions
