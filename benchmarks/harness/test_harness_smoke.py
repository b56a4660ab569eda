"""Smoke test of the measurement harness.

Not part of tier-1 (``testpaths`` stays ``tests``); run it explicitly:

    PYTHONPATH=src python -m pytest benchmarks/harness/test_harness_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
sys.path[:0] = [HERE, os.path.join(REPO_ROOT, "src")]

import layers  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
#: workloads whose traced region runs on the calling thread's account,
#: so their self times must add up to the traced wall
ADDITIVE = [w for w in WORKLOADS if w != "serve_closed2"]


def _run(out, *flags):
    path = os.path.join(out, "result.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--out", path, *flags],
        check=True, capture_output=True, text=True, timeout=120,
    )
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run(str(tmp_path_factory.mktemp("untraced")))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _run(str(tmp_path_factory.mktemp("traced")), "--trace")


def test_every_declared_metric_is_emitted(untraced, traced):
    for document, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert sorted(document["workloads"]) == sorted(WORKLOADS)
        for workload, entry in document["workloads"].items():
            assert entry["failed_ops"] == 0, workload
            assert entry["attempted_ops"] >= 1, workload
            missing = [m["name"] for m in BENCH[kind]
                       if m["name"] not in entry["metrics"]]
            assert not missing, (workload, missing)
    for workload, entry in untraced["workloads"].items():
        for spec in BENCH["end_to_end"]:
            assert entry["metrics"][spec["name"]]["value"] > 0, (
                workload, spec["name"])


def test_metric_and_workload_names_are_well_formed(traced):
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = WORKLOADS + [
        m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(pattern.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    for entry in traced["workloads"].values():
        assert all(pattern.fullmatch(name) for name in entry["metrics"])


def test_provenance_header(untraced):
    header = untraced["provenance"]
    for key in ("git_sha", "git_dirty", "nproc", "python", "numpy", "scipy",
                "blas", "thread_env", "seed", "harness_version", "utc"):
        assert key in header
    assert set(header["thread_env"].values()) == {"1"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_child_spans_lie_inside_their_parents(traced, workload):
    with open(os.path.join(HERE, "out", f"trace_{workload}.json")) as fh:
        events = [e for e in json.load(fh)["traceEvents"] if e["ph"] == "X"]
    assert events
    by_id = {e["args"]["id"]: e for e in events}
    slack_us = 1000.0
    for event in events:
        parent = by_id.get(event["args"].get("parent"))
        if parent is None or event["args"].get("async"):
            continue
        assert event["ts"] >= parent["ts"] - slack_us, event
        assert (event["ts"] + event["dur"]
                <= parent["ts"] + parent["dur"] + slack_us), event


@pytest.mark.parametrize("workload", ADDITIVE)
def test_self_times_add_up_to_the_traced_wall(traced, workload):
    metrics = traced["workloads"][workload]["metrics"]
    total = sum(metrics[name]["value"] for name in layers.SELF_TIME_METRICS)
    wall = metrics["core.traced_wall_s"]["value"]
    assert total == pytest.approx(wall, rel=0.02)
    assert metrics["core.trace_cover"]["value"] >= 0.90


def test_layers_that_do_not_run_report_zero(traced):
    aircraft = traced["workloads"]["aircraft_ms_spido"]["metrics"]
    assert all(m["value"] == 0 for name, m in aircraft.items()
               if name.startswith("hmatrix."))
    for workload in ADDITIVE:
        metrics = traced["workloads"][workload]["metrics"]
        assert all(m["value"] == 0 for name, m in metrics.items()
                   if name.startswith("serving."))


def test_wrappers_are_fully_uninstalled():
    before = tracing.patch_points()
    patches = tracing.install(tracing.Recorder())
    during = tracing.patch_points()
    tracing.uninstall(patches)
    after = tracing.patch_points()
    assert all(during[key] is not before[key] for key in before)
    assert all(after[key] is before[key] for key in before)


def test_refuses_a_leaked_repro_variable():
    env = dict(os.environ, REPRO_N_WORKERS="4", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"),
         "pipe_ms_hmat", "0", "0", "0", "1", "0"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "REPRO_N_WORKERS" in done.stderr


def test_compare_reports_a_regression(untraced, tmp_path):
    worse = json.loads(json.dumps(untraced))
    for entry in worse["workloads"].values():
        for key in ("value", "q1", "q3"):
            entry["metrics"]["wall_s"][key] *= 1.5
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(untraced))
    b.write_text(json.dumps(worse))
    run = [sys.executable, os.path.join(HERE, "run.py"), "compare"]
    same = subprocess.run([*run, str(a), str(a)], capture_output=True,
                          text=True, timeout=60)
    assert same.returncode == 0 and "0 regressed" in same.stdout
    diff = subprocess.run([*run, str(a), str(b)], capture_output=True,
                          text=True, timeout=60)
    assert diff.returncode == 1
    assert f"{len(WORKLOADS)} regressed" in diff.stdout
