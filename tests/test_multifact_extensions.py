"""Tests for the beyond-the-paper multi-factorization extensions."""

import dataclasses

import numpy as np

from repro.core import CoupledFactorization, SolverConfig, solve_coupled


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
