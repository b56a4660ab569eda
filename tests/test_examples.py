"""Smoke tests: every example script runs end to end (reduced sizes)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def _run(script: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart(tmp_path):
    out = _run("quickstart.py", "2000")
    assert "multi_solve" in out
    assert "MUMPS/HMAT" in out
    assert "rel error" in out


def test_memory_planner():
    out = _run("memory_planner.py", "128")
    assert "N_max" in out
    assert "multi_solve_compressed" in out


@pytest.mark.slow
def test_tradeoff_study():
    out = _run("tradeoff_study.py", "2500", "2000")
    assert "Figure 12" in out or "n_S" in out
    assert "factorizations" in out


def test_extensions_tour():
    out = _run("extensions_tour.py", "2500")
    assert "out-of-core dense S" in out
    assert "Factor storage saved" in out


def test_load_case_sweep():
    out = _run("load_case_sweep.py", "2500", "3")
    assert "factorize once + 3 solves" in out
    assert "mean |surface response|" in out
