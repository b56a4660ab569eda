"""Pattern-keyed cache of sparse analyses (the MUMPS/PaStiX reuse idiom).

The paper's multi-factorization pays one *sparse factorization+Schur* call
per Schur block on ``W = [[A_vv, A_sv_jᵀ], [A_sv_i, 0]]`` (§IV-B1).  The
numeric re-factorization of ``A_vv`` is a faithful cost — the solver API
cannot keep factors alive across calls — but the *analysis* phase is not:
real direct solvers split analysis from factorization and reuse the
symbolic phase whenever the pattern is unchanged, and the interior pattern
of every ``W`` block is exactly the pattern of ``A_vv``.

:class:`SymbolicCache` keys the ordering + partition tree + symbolic
factorization of the interior matrix on a :func:`pattern_fingerprint`
(shape, nnz, indptr/indices digest — values are irrelevant to the
analysis), so :meth:`repro.sparse.solver.SparseSolver.factorize_schur`
runs the full analysis once and grafts each block's Schur border onto the
cached interior elimination tree (see
:func:`repro.sparse.symbolic.extend_symbolic_with_border`).

The cache is thread-safe: the multi-factorization blocks run concurrently
on the parallel runtime, and the first block's analysis must happen
*exactly once* — a second worker asking for the same pattern blocks until
the analysis is available instead of duplicating it.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

def pattern_fingerprint(a: sp.spmatrix, extra: bytes = b"") -> str:
    """Digest of a sparse matrix *pattern* (shape + indptr/indices).

    Values are deliberately excluded: a numeric refactorization with
    unchanged pattern must hit the cache.  Index arrays are widened to a
    fixed dtype so int32/int64 representations of the same pattern agree.
    ``extra`` folds caller context (ordering parameters, coordinates)
    into the key.
    """
    a = a.tocsr()
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((a.shape, a.nnz)).encode())
    h.update(np.ascontiguousarray(a.indptr, dtype=np.int64))
    h.update(np.ascontiguousarray(a.indices, dtype=np.int64))
    h.update(extra)
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


class SymbolicCache:
    """Thread-safe LRU cache of analyses keyed by pattern fingerprint.

    Values are opaque to the cache (the solver stores its
    ``(tree, symbolic)`` bundle).  :meth:`get_or_build` is the only way
    in: on a miss the ``build`` callable runs *under the cache lock*, so
    concurrent workers racing on the same pattern never duplicate the
    analysis — the losers block and then share the winner's entry.
    Entries are immutable once stored and may be shared freely across
    factorizations.
    """

    def __init__(self, max_entries: int = 8):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[str, Any]" = OrderedDict()  # guarded-by: _cache_lock
        self._hits = 0  # guarded-by: _cache_lock
        self._misses = 0  # guarded-by: _cache_lock
        self._cache_lock = threading.Lock()

    def get_or_build(self, key: str,
                     build: Callable[[], Any]) -> Tuple[Any, bool]:
        """Return ``(entry, was_hit)``; compute-and-store exactly once."""
        with self._cache_lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                return entry, True
            # build under the lock: exactly-once semantics for concurrent
            # workers (the analysis is pure CPU work, no nested locks)
            entry = build()
            self._misses += 1
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            return entry, False

    @property
    def hits(self) -> int:
        with self._cache_lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._cache_lock:
            return self._misses

    def __len__(self) -> int:
        with self._cache_lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._cache_lock:
            self._entries.clear()
