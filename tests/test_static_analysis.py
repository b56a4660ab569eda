"""Tests for the repo-specific invariant checker suite (tools/analysis).

Three directions:

* the CFG/dataflow engine itself (graph shape, exception edges,
  ``finally`` duplication, fixpoint convergence);
* every fixture in ``tests/analysis_fixtures`` must produce its
  documented findings (the checkers actually detect what they claim);
* the real codebase must be clean (the gate `python -m tools.analysis
  src benchmarks` exits 0) — this is the regression test that keeps the
  CI job green and meaningful.
"""

from __future__ import annotations

import ast
import json
import threading
from pathlib import Path

import pytest

from tools.analysis import ALL_CHECKERS
from tools.analysis.engine import build_cfg, iter_scopes
from tools.analysis.runner import main as runner_main
from tools.analysis.runner import run_checkers
from tools.analysis.watchdog import LockOrderWatchdog, TrackerBalanceRecorder

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).parent.parent


def codes(findings):
    return {f.code for f in findings}


def codes_by_line(findings):
    return {(f.code, f.line) for f in findings}


def function_cfg(src: str):
    scopes = list(iter_scopes(ast.parse(src)))
    assert len(scopes) == 2  # module + the one function
    return scopes[1].cfg()


# -- the engine ----------------------------------------------------------------
class TestCfgConstruction:
    def test_branch_shape(self):
        cfg = function_cfg(
            "def f(flag):\n"
            "    if flag:\n"
            "        x = 1\n"
            "    else:\n"
            "        x = 2\n"
            "    return x\n"
        )
        kinds = [n.kind for n in cfg.nodes]
        assert kinds.count("branch") == 1
        assert kinds.count("join") == 1
        assumes = [n for n in cfg.nodes if n.kind == "assume"]
        assert sorted(n.meta for n in assumes) == ["else", "then"]

    def test_exception_edges_only_from_raising_statements(self):
        cfg = function_cfg(
            "def f(kernel):\n"
            "    x = 1\n"
            "    y = kernel()\n"
            "    return y\n"
        )
        by_line = {n.line: n for n in cfg.nodes if n.kind == "stmt"}
        assert by_line[2].esuccs == []  # plain assignment cannot raise
        assert by_line[3].esuccs != []  # the call can

    def test_finally_is_duplicated_per_continuation(self):
        cfg = function_cfg(
            "def f(tracker, kernel):\n"
            "    alloc = tracker.acquire(1)\n"
            "    try:\n"
            "        return kernel()\n"
            "    finally:\n"
            "        alloc.free()\n"
        )
        # the free() runs on the return unwind AND the exception unwind:
        # the suite is inlined once per continuation
        frees = [n for n in cfg.nodes if n.kind == "stmt" and n.line == 6]
        assert len(frees) >= 2

    def test_with_produces_enter_and_exit_nodes(self):
        cfg = function_cfg(
            "def f(self):\n"
            "    with self._lock:\n"
            "        self.x = 1\n"
        )
        kinds = [n.kind for n in cfg.nodes]
        assert "with_enter" in kinds and "with_exit" in kinds


class TestFixpoint:
    def test_loops_converge(self):
        # reallocation inside a loop reaches a fixpoint and stays clean
        src = (
            "def f(tracker, items):\n"
            "    total = 0\n"
            "    for it in items:\n"
            "        a = tracker.acquire(it)\n"
            "        total += it\n"
            "        a.free()\n"
            "    return total\n"
        )
        tmp = FIXTURES / "_tmp_loop.py"
        try:
            tmp.write_text(src)
            assert run_checkers([str(tmp)],
                                only=["resource-discipline"]) == []
        finally:
            tmp.unlink()

    def test_loop_carried_leak_is_found(self):
        src = (
            "def f(tracker, items):\n"
            "    for it in items:\n"
            "        a = tracker.acquire(it)\n"  # freed on no path
            "    return None\n"
        )
        tmp = FIXTURES / "_tmp_leak.py"
        try:
            tmp.write_text(src)
            found = run_checkers([str(tmp)], only=["resource-discipline"])
        finally:
            tmp.unlink()
        assert "RES002" in codes(found)


# -- fixture detection ---------------------------------------------------------
class TestResourceChecker:
    def test_fixture_findings(self):
        found = run_checkers([str(FIXTURES / "resource_leaks.py")],
                             only=["resource-discipline"])
        assert {"RES001", "RES002", "RES003"} <= codes(found)
        # the leak sites are the allocation lines
        lines = {f.line for f in found if f.code == "RES002"}
        assert len(lines) == 2
        # the clean baseline function contributes nothing
        assert all("clean_baseline" not in f.message for f in found)

    def test_double_free_is_at_second_free(self):
        found = run_checkers([str(FIXTURES / "resource_leaks.py")],
                             only=["resource-discipline"])
        res3 = [f for f in found if f.code == "RES003"]
        assert len(res3) == 1


class TestExceptionPathLeaks:
    """The regression fixture for leaks only the dataflow engine can see."""

    def test_straight_line_free_still_leaks_on_exception(self):
        found = run_checkers([str(FIXTURES / "exception_leak.py")],
                             only=["resource-discipline"])
        assert codes(found) == {"RES008"}
        text = (FIXTURES / "exception_leak.py").read_text().splitlines()
        expected = {i + 1 for i, l in enumerate(text) if "# RES008" in l}
        assert {f.line for f in found} == expected

    def test_cleanup_idioms_are_clean(self):
        found = run_checkers([str(FIXTURES / "exception_leak.py")],
                             only=["resource-discipline"])
        for clean in ("clean_except_cleanup", "clean_finally_cleanup",
                      "clean_guarded_cleanup"):
            assert all(clean not in f.message for f in found)


class TestArenaLifecycle:
    def test_fixture_findings(self):
        found = run_checkers([str(FIXTURES / "arena_misuse.py")],
                             only=["resource-discipline"])
        # RES008: ensure()/reset() can raise while the arena is live —
        # visible only to the flow-sensitive engine
        assert {"RES002", "RES003", "RES007", "RES008"} == codes(found)

    def test_use_after_free_sites(self):
        found = run_checkers([str(FIXTURES / "arena_misuse.py")],
                             only=["resource-discipline"])
        uaf = [f for f in found if f.code == "RES007"]
        assert len(uaf) == 2
        assert any("frame()" in f.message for f in uaf)
        assert any("reset()" in f.message for f in uaf)

    def test_leak_is_at_constructor(self):
        found = run_checkers([str(FIXTURES / "arena_misuse.py")],
                             only=["resource-discipline"])
        text = (FIXTURES / "arena_misuse.py").read_text().splitlines()
        ctor_line = next(i + 1 for i, l in enumerate(text)
                         if "RES002 (never freed)" in l)
        assert any(f.code == "RES002" and f.line == ctor_line
                   for f in found)

    def test_clean_owned_arena_contributes_nothing(self):
        found = run_checkers([str(FIXTURES / "arena_misuse.py")],
                             only=["resource-discipline"])
        assert all("clean_owned_arena" not in f.message for f in found)


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


class TestAxpyChecker:
    def test_fixture_findings(self):
        found = run_checkers([str(FIXTURES / "axpy_misuse.py")],
                             only=["axpy-discipline"])
        assert {"AXPY001", "AXPY002", "AXPY003"} == codes(found)

    def test_dropped_accumulator_is_at_constructor(self):
        found = run_checkers([str(FIXTURES / "axpy_misuse.py")],
                             only=["axpy-discipline"])
        text = (FIXTURES / "axpy_misuse.py").read_text().splitlines()
        ctor_line = next(i + 1 for i, l in enumerate(text)
                         if "AXPY001 (never flushed" in l)
        assert any(f.code == "AXPY001" and f.line == ctor_line
                   for f in found)

    def test_clean_lifecycles_contribute_nothing(self):
        found = run_checkers([str(FIXTURES / "axpy_misuse.py")],
                             only=["axpy-discipline"])
        for clean in ("flushed_accumulator", "handed_off_accumulator",
                      "clean_staged_lifecycle", "'pool"):
            assert all(clean not in f.message for f in found)

    def test_late_flush_still_flags_factorize(self):
        # factorize_before_flush flushes *after* factorize: AXPY003 fires
        # and the late flush does not double as an AXPY002 excuse
        found = run_checkers([str(FIXTURES / "axpy_misuse.py")],
                             only=["axpy-discipline"])
        assert sum(1 for f in found if f.code == "AXPY003") == 1
        assert all("other" not in f.message for f in found
                   if f.code == "AXPY002")


class TestDtypeChecker:
    def test_fixture_findings(self):
        found = run_checkers(
            [str(FIXTURES / "repro" / "core" / "dtype_drift.py")],
            only=["dtype-safety"])
        assert {"DT001", "DT002"} == codes(found)
        assert sum(1 for f in found if f.code == "DT001") == 2

    def test_kernel_path_gate(self, tmp_path):
        # same content outside a kernel path: the dtype gate does not apply
        src = (FIXTURES / "repro" / "core" / "dtype_drift.py").read_text()
        other = tmp_path / "not_kernel.py"
        other.write_text(src)
        assert run_checkers([str(other)], only=["dtype-safety"]) == []


class TestPickleChecker:
    def test_fixture_findings(self):
        found = run_checkers([str(FIXTURES / "pkl_misuse.py")],
                             only=["pickle-safety"])
        assert {"PKL001", "PKL002", "PKL003"} == codes(found)
        assert sum(1 for f in found if f.code == "PKL001") == 4

    def test_module_level_references_are_exempt(self):
        # good_kernel reads make_kernel/np-style importables freely; the
        # clean submit of a module-level function produces nothing
        found = run_checkers([str(FIXTURES / "pkl_misuse.py")],
                             only=["pickle-safety"])
        assert all("good_kernel" not in f.message for f in found)


class TestBlockingChecker:
    def test_fixture_findings(self):
        found = run_checkers(
            [str(FIXTURES / "blocking_under_lock_misuse.py")],
            only=["blocking-under-lock"])
        assert {"BLK001", "BLK002"} == codes(found)
        assert sum(1 for f in found if f.code == "BLK001") == 3

    def test_flow_sensitivity(self):
        found = run_checkers(
            [str(FIXTURES / "blocking_under_lock_misuse.py")],
            only=["blocking-under-lock"])
        # waiting on the sole held condition, submitting after release
        # and non-blocking probes are all clean
        for clean in ("sole_cond_wait", "submit_after_release",
                      "nonblocking_probe", "slab_pop_under_lock"):
            assert all(clean not in f.message for f in found)

    def test_async_fixture_findings(self):
        found = run_checkers(
            [str(FIXTURES / "repro" / "serving"
                 / "async_blocking_misuse.py")],
            only=["blocking-under-lock"])
        assert codes(found) == {"BLK003"}
        assert len(found) == 5
        for bad in ("fact.solve", "cache.get_or_build", "future.result",
                    "tracker.acquire", "_done_event.wait"):
            assert any(bad in f.message for f in found)

    def test_async_clean_shapes_and_waiver(self):
        found = run_checkers(
            [str(FIXTURES / "repro" / "serving"
                 / "async_blocking_misuse.py")],
            only=["blocking-under-lock"])
        # executor thunks, awaited asyncio primitives, non-blocking
        # probes, sync methods and waived lines are all clean
        for clean in ("solve_via_executor", "awaited_asyncio_primitives",
                      "nonblocking_probe", "waived_solve",
                      "sync_method_is_out_of_scope"):
            assert all(clean not in f.message for f in found)

    def test_async_rule_is_path_gated(self, tmp_path):
        # same content outside a repro/serving/ path: BLK003 is silent
        src = (FIXTURES / "repro" / "serving"
               / "async_blocking_misuse.py").read_text()
        other = tmp_path / "not_serving.py"
        other.write_text(src)
        found = run_checkers([str(other)], only=["blocking-under-lock"])
        assert found == []


class TestSlabChecker:
    def test_fixture_findings(self):
        found = run_checkers([str(FIXTURES / "slab_misuse.py")],
                             only=["slab-lifecycle"])
        assert {"SLB001", "SLB002", "SLB003"} == codes(found)
        assert sum(1 for f in found if f.code == "SLB001") == 2

    def test_clean_lifecycles_contribute_nothing(self):
        found = run_checkers([str(FIXTURES / "slab_misuse.py")],
                             only=["slab-lifecycle"])
        for clean in ("clean_handoff", "clean_exception_path",
                      "clean_raw_segment"):
            assert all(clean not in f.message for f in found)


class TestDeterminismChecker:
    def test_fixture_findings(self):
        found = run_checkers([str(FIXTURES / "determinism_misuse.py")],
                             only=["determinism"])
        assert {"DET001", "DET002", "DET003"} == codes(found)
        assert sum(1 for f in found if f.code == "DET002") == 3

    def test_clean_paths_contribute_nothing(self):
        found = run_checkers([str(FIXTURES / "determinism_misuse.py")],
                             only=["determinism"])
        text = (FIXTURES / "determinism_misuse.py").read_text().splitlines()
        clean_start = next(i + 1 for i, l in enumerate(text)
                           if "def clean_paths" in l)
        assert all(f.line < clean_start for f in found)


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

    def test_jobs_match_serial(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        args = [str(FIXTURES), "--quiet", "--no-cache"]
        assert runner_main(args) == 1
        serial = capsys.readouterr().out
        assert runner_main(args + ["--jobs", "2"]) == 1
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_cache_round_trip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        args = [str(FIXTURES / "resource_leaks.py"), "--quiet"]
        assert runner_main(args) == 1
        first = capsys.readouterr().out
        assert (tmp_path / ".analysis_cache.json").exists()
        assert runner_main(args) == 1  # second run served from cache
        assert capsys.readouterr().out == first

    def test_sarif_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out.sarif"
        runner_main([str(FIXTURES / "resource_leaks.py"), "--quiet",
                     "--no-cache", "--sarif", str(out)])
        log = json.loads(out.read_text())
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-analysis"
        assert run["results"]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {r["ruleId"] for r in run["results"]} <= rule_ids

    def test_baseline_suppresses_and_requires_justification(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        fixture = str(FIXTURES / "exception_leak.py")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps([
            {"code": "RES008", "path": "exception_leak.py",
             "justification": "fixture: documented engine regression"},
        ]))
        sarif = tmp_path / "out.sarif"
        assert runner_main([fixture, "--quiet", "--no-cache",
                            "--baseline", str(baseline),
                            "--sarif", str(sarif)]) == 0
        log = json.loads(sarif.read_text())
        results = log["runs"][0]["results"]
        assert results and all(r.get("suppressions") for r in results)
        # an entry without a justification is a configuration error
        baseline.write_text(json.dumps([
            {"code": "RES008", "path": "exception_leak.py"},
        ]))
        assert runner_main([fixture, "--quiet", "--no-cache",
                            "--baseline", str(baseline)]) == 1


# -- real codebase is clean ----------------------------------------------------
class TestRepositoryClean:
    def test_src_and_benchmarks_pass(self):
        found = run_checkers([str(REPO_ROOT / "src"),
                              str(REPO_ROOT / "benchmarks")])
        assert found == [], "\n".join(f.render() for f in found)

    def test_cli_exit_codes(self, capsys):
        assert runner_main([str(REPO_ROOT / "src"), "--quiet",
                            "--no-cache"]) == 0
        assert runner_main([str(FIXTURES / "resource_leaks.py"),
                            "--quiet", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "RES00" in out

    def test_checker_selection(self):
        found = run_checkers([str(FIXTURES / "unlocked_access.py")],
                             only=["dtype-safety"])
        assert found == []

    def test_all_checkers_registered(self):
        names = sorted(cls.name for cls in ALL_CHECKERS)
        assert names == ["axpy-discipline", "blocking-under-lock",
                         "dense-schur", "determinism", "dtype-safety",
                         "lock-discipline", "pickle-safety",
                         "resource-discipline", "slab-lifecycle"]


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
