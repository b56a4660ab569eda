"""Tests for the result containers and the report renderers."""

import numpy as np
import pytest

from repro.core import SolveStats
from repro.core.result import CoupledSolution
from repro.runner.reporting import (
    render_fig10,
    render_fig11,
    render_table,
)


def _stats(**over):
    base = dict(
        algorithm="multi_solve", coupling="MUMPS/HMAT",
        n_total=1000, n_fem=900, n_bem=100,
        phases={"a": 1.0, "b": 2.0}, total_time=3.0,
        peak_bytes=1 << 20, schur_bytes=100, schur_dense_bytes=400,
        sparse_factor_bytes=10,
    )
    base.update(over)
    return SolveStats(**base)


class TestSolveStats:
    def test_summary_line(self):
        s = _stats()
        line = s.summary()
        assert "multi_solve" in line and "MUMPS/HMAT" in line
        assert "1.00 MiB" in line

    def test_compression_ratio(self):
        assert _stats().schur_compression_ratio == pytest.approx(0.25)

    def test_compression_ratio_nan_without_reference(self):
        s = _stats(schur_dense_bytes=0)
        assert np.isnan(s.schur_compression_ratio)


class TestCoupledSolution:
    def test_concatenated_solution(self):
        sol = CoupledSolution(
            x_v=np.array([1.0, 2.0]), x_s=np.array([3.0]), stats=_stats()
        )
        np.testing.assert_array_equal(sol.x, [1.0, 2.0, 3.0])


class TestRenderers:
    def test_fig10_capacity_summary_lists_paper_values(self):
        rows = [
            {"n_total": 4000, "algorithm": "multi_solve",
             "coupling": "MUMPS/HMAT", "feasible": True, "time": 1.0,
             "peak_bytes": 100, "relative_error": 1e-5,
             "n_c": 1, "n_s_block": 1, "n_b": 1},
            {"n_total": 8000, "algorithm": "multi_solve",
             "coupling": "MUMPS/HMAT", "feasible": False,
             "oom_bytes": 10**9,
             "n_c": 1, "n_s_block": 1, "n_b": 1},
        ]
        text = render_fig10(rows)
        assert "Largest processable system" in text
        assert "9,000,000" in text  # the paper's reference value
        assert "OOM" in text

    def test_fig11_marks_violations(self):
        rows = [
            {"n_total": 4000, "algorithm": "a", "coupling": "c",
             "feasible": True, "relative_error": 5e-3},
        ]
        text = render_fig11(rows, epsilon=1e-3)
        assert "NO" in text

    def test_render_table_handles_mixed_types(self):
        text = render_table(["x", "y"], [(1, None), ("abc", 2.5)])
        assert "abc" in text

    def test_fig10_infeasible_only_rows(self):
        rows = [{
            "n_total": 100, "algorithm": "baseline",
            "coupling": "MUMPS/SPIDO", "feasible": False,
            "oom_bytes": 12345, "n_c": 1, "n_s_block": 1, "n_b": 1,
        }]
        text = render_fig10(rows)
        assert "OOM" in text
