"""Tests for the repo-specific invariant checker suite (tools/analysis).

Two directions:

* every fixture in ``tests/analysis_fixtures`` must produce its
  documented findings (the checkers actually detect what they claim);
* the real codebase must be clean — this is where the suite runs in
  tier-1 (`python -m tools.analysis src benchmarks` exits 0).

Plus the runtime companions of ``tools/analysis/watchdog.py``.
"""

from __future__ import annotations

import threading
from pathlib import Path

import pytest

from tools.analysis import ALL_CHECKERS
from tools.analysis.runner import main as runner_main
from tools.analysis.runner import run_checkers
from tools.analysis.watchdog import LockOrderWatchdog, TrackerBalanceRecorder

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).parent.parent


def codes(findings):
    return {f.code for f in findings}


# -- fixture detection ---------------------------------------------------------
class TestLockChecker:
    def test_fixture_findings(self):
        found = run_checkers([str(FIXTURES / "unlocked_access.py")],
                             only=["lock-discipline"])
        assert {"LOCK001", "LOCK002", "LOCK003"} == codes(found)

    def test_locked_method_is_clean(self):
        found = run_checkers([str(FIXTURES / "unlocked_access.py")],
                             only=["lock-discipline"])
        assert all("bump_locked" not in f.message for f in found)


class TestSchurChecker:
    def test_fixture_findings(self):
        found = run_checkers([str(FIXTURES / "densify_schur.py")],
                             only=["dense-schur"])
        assert {"SCHUR001", "SCHUR002", "SCHUR003", "SCHUR004",
                "WAIVE000"} == codes(found)

    def test_waiver_with_reason_suppresses(self):
        found = run_checkers([str(FIXTURES / "densify_schur.py")],
                             only=["dense-schur"])
        text = (FIXTURES / "densify_schur.py").read_text().splitlines()
        waived_line = next(
            i + 1 for i, l in enumerate(text)
            if "fixture demonstrating a justified waiver" in l
        )
        # the waived to_dense() on the following line produced no finding
        assert all(f.line != waived_line + 1 for f in found)

    def test_empty_waiver_is_itself_flagged(self):
        found = run_checkers([str(FIXTURES / "densify_schur.py")],
                             only=["dense-schur"])
        empties = [f for f in found if f.code == "WAIVE000"]
        assert len(empties) == 1


# -- runner robustness ---------------------------------------------------------
class TestRunnerRobustness:
    def test_syntax_error_is_a_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        found = run_checkers([str(bad)])
        assert len(found) == 1
        assert found[0].code == "E000"
        assert "broken.py" in found[0].path

    def test_undecodable_file_is_a_finding(self, tmp_path):
        bad = tmp_path / "binary.py"
        bad.write_bytes(b"\xff\xfe\x00garbage")
        found = run_checkers([str(bad)])
        assert [f.code for f in found] == ["E000"]

# -- real codebase is clean ----------------------------------------------------
class TestRepositoryClean:
    def test_src_and_benchmarks_pass(self):
        found = run_checkers([str(REPO_ROOT / "src"),
                              str(REPO_ROOT / "benchmarks")])
        assert found == [], "\n".join(f.render() for f in found)

    def test_cli_exit_codes(self, capsys):
        assert runner_main([str(REPO_ROOT / "src"), "--quiet"]) == 0
        assert runner_main([str(FIXTURES / "unlocked_access.py"),
                            "--quiet"]) == 1
        out = capsys.readouterr().out
        assert "LOCK00" in out

    def test_checker_selection(self):
        found = run_checkers([str(FIXTURES / "unlocked_access.py")],
                             only=["dense-schur"])
        assert found == []

    def test_all_checkers_registered(self):
        names = sorted(cls.name for cls in ALL_CHECKERS)
        assert names == ["dense-schur", "lock-discipline"]


# -- runtime watchdog ----------------------------------------------------------
class TestLockOrderWatchdog:
    def test_ordered_acquisition_is_acyclic(self):
        with LockOrderWatchdog() as wd:
            outer = threading.Lock()
            inner = threading.Lock()
            for _ in range(3):
                with outer:
                    with inner:
                        pass
        assert wd.find_cycle() is None
        wd.assert_acyclic()

    def test_abba_inversion_is_detected(self):
        with LockOrderWatchdog() as wd:
            lock_a = threading.Lock()
            lock_b = threading.Lock()
            with lock_a:
                with lock_b:
                    pass

            def inverted():
                with lock_b:
                    with lock_a:
                        pass

            t = threading.Thread(target=inverted)
            t.start()
            t.join()
        assert wd.find_cycle() is not None
        with pytest.raises(AssertionError, match="lock-order cycle"):
            wd.assert_acyclic()

    def test_reentrant_rlock_adds_no_self_edge(self):
        with LockOrderWatchdog() as wd:
            rl = threading.RLock()
            with rl:
                with rl:
                    pass
        assert wd.edges == set()

    def test_condition_wrapping_still_works(self):
        with LockOrderWatchdog():
            cond = threading.Condition()
            hits = []

            def waiter():
                with cond:
                    cond.wait(timeout=5.0)
                    hits.append(1)

            t = threading.Thread(target=waiter)
            t.start()
            # give the waiter a moment to take the lock and block
            import time
            for _ in range(100):
                time.sleep(0.01)
                with cond:
                    cond.notify_all()
                if hits:
                    break
            t.join(timeout=5.0)
        assert hits == [1]

    def test_uninstall_restores_factories(self):
        orig_lock = threading.Lock
        wd = LockOrderWatchdog().install()
        assert threading.Lock is not orig_lock
        wd.uninstall()
        assert threading.Lock is orig_lock


class TestTrackerBalanceRecorder:
    def test_balanced_tracker_passes(self):
        from repro.memory.tracker import MemoryTracker

        rec = TrackerBalanceRecorder().install()
        try:
            tracker = MemoryTracker()
            alloc = tracker.allocate(100)
            alloc.free()
        finally:
            rec.uninstall()
        rec.verify()

    def test_unbalanced_tracker_fails(self):
        from repro.memory.tracker import MemoryTracker

        rec = TrackerBalanceRecorder().install()
        try:
            tracker = MemoryTracker()
            alloc = tracker.allocate(100)
        finally:
            rec.uninstall()
        with pytest.raises(AssertionError, match="still has 100 B live"):
            rec.verify()
        alloc.free()
