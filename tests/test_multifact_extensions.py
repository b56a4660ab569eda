"""Tests for the beyond-the-paper multi-factorization extensions."""

import dataclasses

import numpy as np
import pytest

from repro.core import CoupledFactorization, SolverConfig, solve_coupled
from repro.core.multi_factorization import _build_w_block, _surface_blocks
from repro.core.schur_tools import make_sparse_solver
from repro.memory import MemoryTracker
from repro.sparse import multifrontal


class TestDiagonalSymmetryFlag:
    """A symmetric problem runs one triangle of W blocks, LDLᵀ on the
    diagonal; the same matrices with the symmetry flag cleared run the
    paper's ``n_b²`` LU blocks — the reference these tests compare with."""

    def test_same_solution(self, pipe_medium):
        unsymmetric = dataclasses.replace(pipe_medium, symmetric=False)
        faithful = solve_coupled(unsymmetric, "multi_factorization",
                                 SolverConfig(n_b=2))
        exploit = solve_coupled(pipe_medium, "multi_factorization",
                                SolverConfig(n_b=2))
        assert faithful.stats.n_sparse_factorizations == 4
        assert exploit.stats.n_sparse_factorizations == 3
        np.testing.assert_allclose(faithful.x, exploit.x, atol=1e-8)

    def test_not_applied_to_nonsymmetric_problem(self, aircraft_small):
        # a non-symmetric system keeps the paper's n_b² LU blocks
        with CoupledFactorization(aircraft_small, "multi_factorization",
                                  SolverConfig(n_b=2, epsilon=1e-4)) as fact:
            mode = fact._mf.mode
            x_v, x_s = fact.solve(aircraft_small.b_v, aircraft_small.b_s)
        assert fact.stats.n_sparse_factorizations == 4
        assert mode == "lu"
        assert aircraft_small.relative_error(x_v, x_s) < 1e-4

    def test_diagonal_symmetry_saves_factor_storage(self, pipe_medium):
        """On the i == j blocks the symmetric mode stores one panel set."""
        unsymmetric = dataclasses.replace(pipe_medium, symmetric=False)
        faithful = solve_coupled(unsymmetric, "multi_factorization",
                                 SolverConfig(n_b=1))
        exploit = solve_coupled(pipe_medium, "multi_factorization",
                                SolverConfig(n_b=1))
        # n_b = 1: the single block is diagonal, so the whole factorization
        # switches to LDLᵀ — roughly half the stored panel bytes
        assert exploit.stats.sparse_factor_bytes < (
            0.7 * faithful.stats.sparse_factor_bytes
        )


def _w_block(problem, i, j, n_b=2):
    blocks = _surface_blocks(problem.n_bem, n_b)
    w, schur_vars = _build_w_block(problem.a_vv, problem.a_sv, blocks[i],
                                   blocks[j], problem.dtype)
    return w, schur_vars, problem.symmetric and i == j


class TestSchurOnlyBlocks:
    """Every W block but the last asks only for its Schur block: the same
    numeric loop, no stored, BLR-tested or charged factors."""

    @pytest.mark.parametrize("case,i,j,mode", [
        ("pipe_small", 0, 0, "ldlt"),
        ("pipe_small", 1, 0, "lu"),
        ("aircraft_small", 1, 0, "lu"),
    ])
    def test_schur_complement_is_the_kept_factorizations_schur(
            self, request, monkeypatch, case, i, j, mode):
        problem = request.getfixturevalue(case)
        w, schur_vars, symmetric = _w_block(problem, i, j)
        compressions = []
        compress = multifrontal.compress_panel
        monkeypatch.setattr(multifrontal, "compress_panel",
                            lambda panel, blr: compressions.append(1)
                            or compress(panel, blr))

        analysis = make_sparse_solver(SolverConfig(), MemoryTracker()).analyse(
            problem.a_vv, problem.coords_v)

        def solver(tracker):
            return make_sparse_solver(SolverConfig(), tracker)

        kept = solver(MemoryTracker()).factorize_schur(
            analysis, w, schur_vars, symmetric_values=symmetric)
        assert kept.mode == mode and kept.factor_bytes > 0
        assert compressions
        expected, expected_alloc = kept.take_schur()
        kept.free()
        expected_alloc.free()

        compressions.clear()
        tracker = MemoryTracker()
        schur, alloc = solver(tracker).schur_complement(
            analysis, w, schur_vars, symmetric_values=symmetric)
        assert np.array_equal(schur, expected)
        assert not compressions
        assert tracker.category_peak("sparse_factor") == 0
        assert tracker.in_use == alloc.nbytes == schur.nbytes
        alloc.free()
        assert tracker.in_use == 0

    def test_run_charges_only_the_kept_blocks_factors(self, pipe_small):
        # the off-diagonal LU block stores more factor bytes than the kept
        # LDLᵀ block, so a run that kept or charged it fails here
        w, schur_vars, symmetric = _w_block(pipe_small, 1, 1)
        solver = make_sparse_solver(SolverConfig(), MemoryTracker())
        last = solver.factorize_schur(
            solver.analyse(pipe_small.a_vv, pipe_small.coords_v), w,
            schur_vars, symmetric_values=symmetric)
        kept_bytes = last.factor_bytes
        last.free()
        sol = solve_coupled(pipe_small, "multi_factorization",
                            SolverConfig(n_b=2, n_c=64))
        assert sol.stats.sparse_factor_bytes == kept_bytes
        assert sol.stats.peak_by_category["sparse_factor"] == kept_bytes


class TestOutOfCoreModel:
    def test_ooc_moves_schur_to_disk(self):
        from repro.memory.model import CouplingMemoryModel, paper_pipe_dims
        model = CouplingMemoryModel()
        dims = paper_pipe_dims(2_000_000)
        ic = model.peak_components("multi_solve", dims)
        ooc = model.peak_components("multi_solve", dims, out_of_core=True)
        assert "schur_dense" in ic and "schur_dense" not in ooc
        assert ooc["disk:schur_dense"] == ic["schur_dense"]

    def test_ooc_resident_peak_smaller(self):
        from repro.memory.model import CouplingMemoryModel, paper_pipe_dims
        model = CouplingMemoryModel()
        dims = paper_pipe_dims(2_000_000)
        assert model.peak_bytes("multi_solve", dims, out_of_core=True) < (
            model.peak_bytes("multi_solve", dims)
        )

    def test_ooc_extends_capacity(self):
        from repro.memory.model import (
            CouplingMemoryModel,
            predict_max_unknowns,
        )
        model = CouplingMemoryModel()
        limit = 128 * 1024**3
        ic = predict_max_unknowns(model, "multi_solve", limit)
        ooc = predict_max_unknowns(model, "multi_solve", limit,
                                   out_of_core=True)
        assert ooc > 2 * ic
