"""Runtime lock-order watchdog: record the real acquisition graph.

The static lock-discipline checker (:mod:`tools.analysis.locks`) can only
see *lexically* nested ``with`` blocks; an ordering inversion split across
functions — worker thread A holding the scheduler's turnstile while
calling into the tracker, worker B doing the reverse — is invisible to
it.  The watchdog closes that gap dynamically:

* :meth:`LockOrderWatchdog.install` patches the ``threading.Lock``,
  ``threading.RLock`` and ``threading.Condition`` factories so every lock
  created afterwards is wrapped in a recording proxy.  Locks are named by
  their *creation site* (``file:line`` of the first caller frame outside
  ``threading``), so the many per-instance locks of one class collapse
  into a single node and ordering is checked per *site*, which is the
  granularity the hierarchy is declared at.

* Each successful acquisition appends the lock to a per-thread held list
  and adds one directed edge ``held-site -> acquired-site`` per distinct
  held lock.  Re-entrant acquisitions (the tracker's RLock) produce
  self-edges, which are skipped — re-entry cannot deadlock.

* :meth:`LockOrderWatchdog.assert_acyclic` runs a DFS over the recorded
  graph; a cycle is exactly a potential ABBA deadlock and fails the test
  that exercised it, printing the offending site cycle.

An autouse fixture in ``tests/conftest.py`` installs the watchdog around
the concurrency tests, and :class:`TrackerBalanceRecorder` around every
test: each :class:`repro.memory.tracker.MemoryTracker` constructed during
a test must end it balanced (``assert_all_freed``).
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, List, Optional, Set, Tuple

_THREADING_FILE = threading.__file__

#: the genuine factory, captured before any watchdog can patch it — the
#: watchdog's own bookkeeping lock must never be a recording proxy
_REAL_LOCK_FACTORY = threading.Lock


def _creation_site(skip_files: Tuple[str, ...]) -> str:
    """``file:line`` of the nearest caller frame outside this module/threading."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename not in skip_files:
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


class _LockProxy:
    """Wraps a real lock, reporting acquisitions/releases to the watchdog."""

    def __init__(self, real, site: str, watchdog: "LockOrderWatchdog"):
        self._real = real
        self._site = site
        self._watchdog = watchdog

    def acquire(self, *args, **kwargs) -> bool:
        got = self._real.acquire(*args, **kwargs)
        if got:
            self._watchdog._note_acquire(self)
        return got

    def release(self) -> None:
        self._watchdog._note_release(self)
        self._real.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def locked(self) -> bool:
        return self._real.locked()

    def __getattr__(self, name: str):
        # Condition() probes the optional _release_save/_acquire_restore/
        # _is_owned protocol with getattr; forward to the real lock so the
        # probe resolves exactly when the real lock supports it.  wait()
        # then releases/reacquires through the real lock directly, which
        # is fine: a wait() cannot introduce a new ordering edge.
        return getattr(self._real, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_LockProxy({self._site})"


class LockOrderWatchdog:
    """Records the lock-acquisition order graph while installed."""

    def __init__(self) -> None:
        #: directed edges between creation sites: held -> acquired
        self.edges: Set[Tuple[str, str]] = set()
        #: example stack per edge (first time it was observed)
        self.witness: Dict[Tuple[str, str], str] = {}
        self._held = threading.local()
        self._installed = False
        self._orig: Dict[str, object] = {}
        self._graph_lock = _REAL_LOCK_FACTORY()
        self._skip_files = (__file__, _THREADING_FILE)

    # -- proxy callbacks ----------------------------------------------------
    def _held_list(self) -> List[_LockProxy]:
        held = getattr(self._held, "locks", None)
        if held is None:
            held = self._held.locks = []
        return held

    def _note_acquire(self, proxy: _LockProxy) -> None:
        held = self._held_list()
        new_edges = []
        for other in held:
            if other._site != proxy._site:
                new_edges.append((other._site, proxy._site))
        held.append(proxy)
        if new_edges:
            with self._graph_lock:
                for edge in new_edges:
                    if edge not in self.edges:
                        self.edges.add(edge)
                        self.witness[edge] = threading.current_thread().name
    # re-entrant acquisitions of the same site add no edge: re-entry on an
    # RLock cannot participate in an ABBA deadlock

    def _note_release(self, proxy: _LockProxy) -> None:
        held = self._held_list()
        for i in range(len(held) - 1, -1, -1):
            if held[i] is proxy:
                del held[i]
                return

    # -- installation -------------------------------------------------------
    def install(self) -> "LockOrderWatchdog":
        """Patch the ``threading`` lock factories (idempotent)."""
        if self._installed:
            return self
        self._orig = {
            "Lock": threading.Lock,
            "RLock": threading.RLock,
        }
        watchdog = self
        orig_lock, orig_rlock = threading.Lock, threading.RLock

        def make_lock(*args, **kwargs):
            site = _creation_site(watchdog._skip_files)
            return _LockProxy(orig_lock(*args, **kwargs), site, watchdog)

        def make_rlock(*args, **kwargs):
            site = _creation_site(watchdog._skip_files)
            return _LockProxy(orig_rlock(*args, **kwargs), site, watchdog)

        threading.Lock = make_lock  # type: ignore[misc]
        threading.RLock = make_rlock  # type: ignore[misc]
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Restore the original factories."""
        if not self._installed:
            return
        threading.Lock = self._orig["Lock"]  # type: ignore[misc]
        threading.RLock = self._orig["RLock"]  # type: ignore[misc]
        self._orig = {}
        self._installed = False

    def __enter__(self) -> "LockOrderWatchdog":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis -----------------------------------------------------------
    def find_cycle(self) -> Optional[List[str]]:
        """A list of sites forming a cycle in the order graph, or None."""
        with self._graph_lock:
            graph: Dict[str, Set[str]] = {}
            for a, b in self.edges:
                graph.setdefault(a, set()).add(b)
        WHITE, GREY, BLACK = 0, 1, 2
        color = {node: WHITE for node in graph}
        path: List[str] = []

        def dfs(node: str) -> Optional[List[str]]:
            color[node] = GREY
            path.append(node)
            for succ in sorted(graph.get(node, ())):
                state = color.get(succ, WHITE)
                if state == GREY:
                    return path[path.index(succ):] + [succ]
                if state == WHITE:
                    found = dfs(succ)
                    if found is not None:
                        return found
            path.pop()
            color[node] = BLACK
            return None

        for node in sorted(graph):
            if color.get(node, WHITE) == WHITE:
                found = dfs(node)
                if found is not None:
                    return found
        return None

    def assert_acyclic(self) -> None:
        """Fail when the recorded acquisition graph contains a cycle."""
        cycle = self.find_cycle()
        if cycle is not None:
            rendering = "\n    -> ".join(cycle)
            raise AssertionError(
                f"lock-order cycle recorded (potential ABBA deadlock):\n"
                f"    -> {rendering}\n"
                f"observed edges: {sorted(self.edges)}"
            )


class TrackerBalanceRecorder:
    """Asserts every tracker created while installed ends balanced.

    Patches ``MemoryTracker.__init__`` to keep each new tracker alive
    until :meth:`verify`, which calls ``assert_all_freed`` on all of them.
    Holding them strongly is the point: a run's tracker dies with the run
    (``solve_coupled`` keeps no reference), so a charge a finished run
    never released would otherwise vanish unseen.
    """

    def __init__(self) -> None:
        self._trackers: List[object] = []
        self._orig_init = None

    def install(self) -> "TrackerBalanceRecorder":
        from repro.memory.tracker import MemoryTracker

        if self._orig_init is not None:
            return self
        recorder = self
        orig_init = MemoryTracker.__init__

        def recording_init(tracker_self, *args, **kwargs):
            orig_init(tracker_self, *args, **kwargs)
            recorder._trackers.append(tracker_self)

        self._orig_init = orig_init
        MemoryTracker.__init__ = recording_init  # type: ignore[method-assign]
        return self

    def uninstall(self) -> None:
        from repro.memory.tracker import MemoryTracker

        if self._orig_init is not None:
            MemoryTracker.__init__ = self._orig_init  # type: ignore[method-assign]
            self._orig_init = None

    def verify(self) -> None:
        """``assert_all_freed`` on every tracker created while installed."""
        trackers, self._trackers = self._trackers, []
        for tracker in trackers:
            tracker.assert_all_freed()
