"""Tests for the experiment harness (quick, reduced-size runs)."""

import pytest

from repro.core.config import SolverConfig
from repro.runner.experiments import (
    run_fig10_fig11,
    run_fig12,
    run_fig13,
    run_table1,
    run_table2,
)
from repro.runner.reporting import (
    render_fig10,
    render_fig11,
    render_fig12,
    render_fig13,
    render_table,
    render_table1,
    render_table2,
)
from repro.runner.workloads import (
    PIPE_STUDY_SIZES,
    TABLE1_SIZES,
    fig10_config_grid,
    pipe_memory_limit,
    scaled_n,
)


class TestWorkloads:
    def test_scaled_n(self):
        assert scaled_n(1_000_000) == 4_000
        assert scaled_n(9_000_000) == 36_000
        assert scaled_n(1) == 1_000  # floor

    def test_study_sizes_cover_table1(self):
        assert set(TABLE1_SIZES) <= set(PIPE_STUDY_SIZES)

    def test_grid_has_all_couplings(self):
        grid = fig10_config_grid()
        algorithms = {a for a, _ in grid}
        assert algorithms == {
            "baseline", "advanced", "multi_solve", "multi_factorization",
        }
        for configs in grid.values():
            assert configs

    def test_memory_limit_positive(self):
        assert pipe_memory_limit() > 0


class TestTable1:
    def test_rows_match_paper_structure(self):
        rows = run_table1()
        assert len(rows) == 4
        for row in rows:
            assert row["n_bem"] + row["n_fem"] == row["n_total"]
            # the BEM share tracks the paper's N^(2/3) ratio
            assert row["bem_fraction"] < 0.35

    def test_render(self):
        text = render_table1(run_table1())
        assert "n_BEM" in text and "paper n_BEM" in text


class TestFig10Quick:
    @pytest.fixture(scope="class")
    def rows(self):
        grid = {
            ("multi_solve", "spido"): [
                c for c in fig10_config_grid()[("multi_solve", "spido")][:2]
            ],
            ("multi_solve", "hmat"): [
                fig10_config_grid()[("multi_solve", "hmat")][0]
            ],
        }
        return run_fig10_fig11(sizes=[1_200], grid=grid,
                               memory_limit=2 * 1024**3)

    def test_all_cells_present(self, rows):
        assert len(rows) == 2

    def test_feasible_rows_have_metrics(self, rows):
        for row in rows:
            assert row["feasible"]
            assert row["time"] > 0
            assert row["peak_bytes"] > 0
            assert row["relative_error"] < 1e-2

    def test_best_config_recorded(self, rows):
        for row in rows:
            assert "n_c" in row and "coupling" in row

    def test_renderers(self, rows):
        assert "best time" in render_fig10(rows)
        assert "rel. error" in render_fig11(rows)

    def test_oom_cell_reported_infeasible(self):
        grid = {
            ("baseline", "spido"): fig10_config_grid()[("baseline", "spido")]
        }
        rows = run_fig10_fig11(sizes=[1_200], grid=grid,
                               memory_limit=200_000)
        assert len(rows) == 1
        assert not rows[0]["feasible"]
        assert "OOM" in render_fig10(rows)


class TestFig12And13Quick:
    def test_fig12_rows(self):
        rows = run_fig12(n_total=1_200, nc_values=[32, 64], ns_values=[128])
        variants = {r["variant"] for r in rows}
        assert any("SPIDO" in v for v in variants)
        assert any("n_c = n_S" in v for v in variants)
        assert all(r["feasible"] for r in rows)
        text = render_fig12(rows)
        assert "n_S" in text

    def test_fig12_pinned_nc_rows(self):
        rows = run_fig12(n_total=1_200, nc_values=[16], ns_values=[64, 128])
        pinned = [r for r in rows if "n_c = 16" in r["variant"]]
        assert len(pinned) == 2
        # the sweep must move what it reports: n_S is the number of
        # columns S takes between two recompressions, so the two rows
        # round S differently.  Their errors (bit-identical for any worker
        # count) tell them apart; their peaks, under several workers, may not
        small, large = sorted(pinned, key=lambda r: r["n_s_block"])
        assert small["relative_error"] != large["relative_error"]
        assert max(small["relative_error"],
                   large["relative_error"]) <= SolverConfig().epsilon

    def test_fig13_rows(self):
        rows = run_fig13(n_total=1_200, nb_values=[1, 2])
        assert len(rows) == 4  # 2 n_b values x 2 couplings
        for r in rows:
            n_b = r["n_b"]
            # the symmetric pipe runs one triangle of W blocks; the paper's
            # n_b² is the same matrices with the symmetry flag cleared
            assert r["n_sparse_factorizations"] == n_b * (n_b + 1) // 2
            assert r["unsymmetric"]["n_sparse_factorizations"] == n_b * n_b
            assert r["unsymmetric"]["feasible"]
        text = render_fig13(rows)
        assert "factorizations" in text and "unsym. view" in text


class TestTable2Quick:
    def test_reduced_table2_runs(self):
        rows = run_table2(n_total=1_600, memory_limit=8 * 1024**3,
                          bem_fraction=0.25)
        assert len(rows) == 9
        assert all(r["feasible"] for r in rows)  # generous limit
        # every row meets Table II's ε = 1e-4
        assert all(r["relative_error"] <= 1e-4 for r in rows)
        # compressed rows store a Schur complement no bigger than dense rows
        dense_s = rows[2]["schur_bytes"]
        comp_s = rows[5]["schur_bytes"]
        assert comp_s <= dense_s * 1.5
        text = render_table2(rows)
        assert "sparse cmp" in text

    def test_table2_oom_rows_under_tight_limit(self):
        rows = run_table2(n_total=1_600, memory_limit=1_000_000,
                          bem_fraction=0.25)
        assert not any(r["feasible"] for r in rows)


class TestRenderTable:
    def test_alignment_and_title(self):
        text = render_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_none_rendered_empty(self):
        text = render_table(["x"], [[None]])
        assert text.splitlines()[-1].strip() == ""
