"""Shared fixtures for the test suite.

Problem generation dominates test time, so the coupled test problems are
session-scoped; tests must not mutate them.

Every test runs under the tracker-balance recorder from
:mod:`tools.analysis.watchdog`: a ``MemoryTracker`` created during the
test that ends it with bytes still charged fails the test at teardown.
The concurrency tests (``_WATCHDOG_MODULES``) additionally run under the
lock-order watchdog: every lock acquisition is recorded and the test
fails if the observed acquisition graph contains a cycle (a potential
ABBA deadlock).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# make the repo-root ``tools`` package importable regardless of how pytest
# was launched (``python -m pytest`` adds the CWD, plain ``pytest`` does not)
_REPO_ROOT = Path(__file__).resolve().parent.parent
if (_REPO_ROOT / "tools").is_dir() and str(_REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT))

from repro.fembem import generate_aircraft_case, generate_pipe_case

#: test modules whose lock usage the watchdog verifies end to end
_WATCHDOG_MODULES = {"test_runtime", "test_sparse_analysis",
                     "test_compressed_axpy", "test_process_backend",
                     "test_factorized", "test_serving_cache",
                     "test_serving", "test_multifrontal"}


@pytest.fixture(autouse=True)
def _runtime_invariants(request):
    """Tracker balance around every test; lock order around the
    concurrency tests."""
    from tools.analysis.watchdog import LockOrderWatchdog, TrackerBalanceRecorder

    module = getattr(request, "module", None)
    # ``tests`` is a package: the module is named ``tests.test_runtime``
    watched = (module is not None
               and module.__name__.rpartition(".")[2] in _WATCHDOG_MODULES)
    watchdog = LockOrderWatchdog().install() if watched else None
    recorder = TrackerBalanceRecorder().install()
    try:
        yield
    finally:
        recorder.uninstall()
        if watchdog is not None:
            watchdog.uninstall()
    # a violation surfaces as a teardown error on the offending test
    if watchdog is not None:
        watchdog.assert_acyclic()
    recorder.verify()


@pytest.fixture(scope="session")
def pipe_small():
    """A small real symmetric pipe case (fast; shared, do not mutate)."""
    return generate_pipe_case(1_600, seed=7)


@pytest.fixture(scope="session")
def pipe_medium():
    """A medium pipe case for integration tests (shared, do not mutate)."""
    return generate_pipe_case(3_000, seed=3)


@pytest.fixture(scope="session")
def aircraft_small():
    """A small complex non-symmetric industrial case (shared, do not mutate)."""
    # a larger surface share than the geometric default so the dense part
    # is big enough for compression effects to be observable in tests
    return generate_aircraft_case(1_800, seed=5, bem_fraction=0.25)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
