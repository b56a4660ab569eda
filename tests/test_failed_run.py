"""A run that fails leaves nothing behind.

The memory limit is tripped deliberately at the k-th rise of the running
peak (the reproduction's out-of-memory analog, raised where a real limit
would raise), one run per k, until a run gets through.  After every trip
each tracker the run created reads zero and, while the exception is
still referenced, no ``repro-ooc-*`` directory of the run is left on
disk.  The run that finally gets through — its trip armed past the last
rise, so it never fires — is bit-identical to a run made before the
sweep.

Sampling: every site on the pipe at one worker, every :data:`STRIDE`-th
site (1, 1 + STRIDE, …) on the aircraft at one worker and on the pipe
under four threads.  The aircraft under four threads is left to the full
sweep: a multi-factorization run there takes seconds on two cores.

A second group raises inside the ordered commit of a four-thread
assembly — the Schur container's ``commit`` fails on its k-th call —
and checks that the tracker, the front arenas and the runtime's threads
are all gone.
"""

from __future__ import annotations

import glob
import os
import tempfile
import threading

import numpy as np
import pytest

from repro.core import SolverConfig, solve_coupled
from repro.core import schur_tools
from repro.memory.tracker import MemoryTracker
from repro.utils.errors import MemoryLimitExceeded

#: Trip every STRIDE-th peak rise outside the pipe's one-worker lanes.
STRIDE = 17

LANES = [("baseline", "spido"), ("advanced", "spido")] + [
    (algorithm, backend)
    for algorithm in ("multi_solve", "multi_factorization")
    for backend in ("spido", "hmat", "spido_ooc")
]


def _config(backend: str, n_workers: int) -> SolverConfig:
    return SolverConfig(dense_backend=backend, n_c=64, n_b=2,
                        n_workers=n_workers, runtime_backend="thread")


def _ooc_dirs() -> set:
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-ooc-*")))


class _Trackers:
    """Records every :class:`MemoryTracker` created while installed."""

    def __init__(self, monkeypatch):
        self.created = []
        init = MemoryTracker.__init__

        def recording_init(tracker, *args, **kwargs):
            init(tracker, *args, **kwargs)
            self.created.append(tracker)

        monkeypatch.setattr(MemoryTracker, "__init__", recording_init)

    def charged(self) -> list:
        """Categories still charged, one dict per unbalanced tracker."""
        return [t.categories for t in self.created if t.in_use]


class _PeakTrip(_Trackers):
    """Raises :class:`MemoryLimitExceeded` at the ``k``-th charge that
    raises some tracker's running peak (``k = 0``: never)."""

    def __init__(self, monkeypatch):
        super().__init__(monkeypatch)
        self.k = 0
        self._rises = 0
        self._lock = threading.Lock()
        charge = MemoryTracker._charge

        def tripping_charge(tracker, nbytes, category, label):
            with tracker._cond:
                if tracker._in_use + nbytes > tracker._peak and self._hit():
                    raise MemoryLimitExceeded(
                        nbytes, tracker._in_use, tracker._in_use, label)
                charge(tracker, nbytes, category, label)

        monkeypatch.setattr(MemoryTracker, "_charge", tripping_charge)

    def _hit(self) -> bool:
        with self._lock:
            self._rises += 1
            return self._rises == self.k

    def arm(self, k: int) -> None:
        self.k, self._rises, self.created = k, 0, []


@pytest.mark.parametrize("case,n_workers", [
    ("pipe_small", 1), ("aircraft_small", 1), ("pipe_small", 4),
])
@pytest.mark.parametrize("algorithm,backend", LANES,
                         ids=[f"{a}-{b}" for a, b in LANES])
def test_memory_limit_trip_leaves_nothing(request, monkeypatch, case,
                                          algorithm, backend, n_workers):
    problem = request.getfixturevalue(case)
    config = _config(backend, n_workers)
    clean = solve_coupled(problem, algorithm, config)
    trip = _PeakTrip(monkeypatch)
    stride = 1 if (case, n_workers) == ("pipe_small", 1) else STRIDE
    leaks = {}
    k = 1
    while True:
        trip.arm(k)
        before = _ooc_dirs()
        try:
            after = solve_coupled(problem, algorithm, config)
        except MemoryLimitExceeded:
            # the traceback still references the run's frames here
            left = trip.charged() + sorted(_ooc_dirs() - before)
            if left:
                leaks[k] = left
        else:
            break
        k += stride
    assert k > 1, "no peak rise was tripped"
    n_trips = len(range(1, k, stride))
    assert not leaks, f"{len(leaks)} of {n_trips} trips left: {leaks}"

    assert np.array_equal(after.x_v, clean.x_v)
    assert np.array_equal(after.x_s, clean.x_s)
    if n_workers == 1:  # under threads the peak depends on the schedule
        assert after.stats.peak_bytes == clean.stats.peak_bytes


class _CommitFault(Exception):
    pass


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("algorithm,backend", [
    ("multi_solve", "hmat"),
    ("multi_factorization", "spido"),
    ("multi_factorization", "hmat"),
])
def test_thread_task_raising_mid_commit(pipe_small, monkeypatch, algorithm,
                                        backend, k):
    """The ordered fold into ``S`` raises on its k-th call under four
    threads: the run frees every charge, its front arenas included, and
    the runtime's pool is gone."""
    trackers = _Trackers(monkeypatch)
    calls = []
    for cls in (schur_tools.DenseSchurContainer,
                schur_tools.HodlrSchurContainer):
        def failing(self, *args, _orig=cls.commit):
            calls.append(None)
            if len(calls) == k:
                raise _CommitFault(f"fold {k}")
            return _orig(self, *args)

        monkeypatch.setattr(cls, "commit", failing)
    threads_before = set(threading.enumerate())
    with pytest.raises(_CommitFault):
        solve_coupled(pipe_small, algorithm, _config(backend, 4))
    assert set(threading.enumerate()) <= threads_before
    assert trackers.created
    for tracker in trackers.created:
        assert tracker.category_in_use("front_arena") == 0
    assert trackers.charged() == []
