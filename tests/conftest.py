"""Shared fixtures for the test suite.

Problem generation dominates test time, so the coupled test problems are
session-scoped; tests must not mutate them.

The concurrency tests (``_WATCHDOG_MODULES``) additionally run under the
lock-order watchdog from :mod:`tools.analysis.watchdog`: every lock
acquisition is recorded and the test fails if the observed acquisition
graph contains a cycle (a potential ABBA deadlock), or if any
``MemoryTracker`` created during the test ends it unbalanced.
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
_WATCHDOG_MODULES = {"test_runtime", "test_symbolic_cache",
                     "test_compressed_axpy", "test_process_backend",
                     "test_factorized", "test_serving_cache",
                     "test_serving", "test_multifrontal"}


@pytest.fixture(autouse=True)
def _concurrency_invariants(request):
    """Lock-order + tracker-balance verification around concurrency tests."""
    module = getattr(request, "module", None)
    # ``tests`` is a package: the module is named ``tests.test_runtime``
    if (module is None
            or module.__name__.rpartition(".")[2] not in _WATCHDOG_MODULES):
        yield
        return
    from tools.analysis.watchdog import LockOrderWatchdog, TrackerBalanceRecorder

    watchdog = LockOrderWatchdog().install()
    recorder = TrackerBalanceRecorder().install()
    try:
        yield
    finally:
        recorder.uninstall()
        watchdog.uninstall()
    # a violation surfaces as a teardown error on the offending test
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
