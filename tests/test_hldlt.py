"""Tests for the hierarchical LDLᵀ factorization of symmetric HODLR."""

import numpy as np
import pytest

from repro.fembem.bem import make_surface_operator
from repro.fembem.mesh import box_surface_points
from repro.hmatrix import (
    HLDLTFactorization,
    HLUFactorization,
    build_cluster_tree,
    build_hodlr,
    hodlr_from_dense,
)
from repro.utils.errors import SingularMatrixError


@pytest.fixture(scope="module")
def setup():
    pts = box_surface_points((8.0, 2.0, 2.0), 400, seed=13)
    tree = build_cluster_tree(pts, leaf_size=48)
    return pts, tree


class TestSolve:
    def test_real_symmetric_accuracy(self, setup, rng):
        pts, tree = setup
        op = make_surface_operator(pts, kind="laplace")
        dense = op.to_dense()
        f = HLDLTFactorization(build_hodlr(op, tree, tol=1e-9))
        b = rng.standard_normal(len(pts))
        x = f.solve(b)
        assert np.linalg.norm(dense @ x - b) / np.linalg.norm(b) < 1e-7

    def test_complex_symmetric_accuracy(self, setup, rng):
        """Complex *symmetric* (not Hermitian): plain transposes required."""
        pts, tree = setup
        op = make_surface_operator(pts, kind="helmholtz", wavenumber=0.7)
        dense = op.to_dense()
        assert not np.allclose(dense, dense.conj().T)
        f = HLDLTFactorization(build_hodlr(op, tree, tol=1e-9))
        b = rng.standard_normal(len(pts)) + 1j * rng.standard_normal(len(pts))
        x = f.solve(b)
        assert np.linalg.norm(dense @ x - b) / np.linalg.norm(b) < 1e-7

    def test_multiple_rhs(self, setup, rng):
        pts, tree = setup
        op = make_surface_operator(pts)
        dense = op.to_dense()
        f = HLDLTFactorization(build_hodlr(op, tree, tol=1e-9))
        b = rng.standard_normal((len(pts), 4))
        assert np.abs(dense @ f.solve(b) - b).max() < 1e-6

    def test_matches_hlu(self, setup, rng):
        pts, tree = setup
        op = make_surface_operator(pts)
        hm = build_hodlr(op, tree, tol=1e-10)
        b = rng.standard_normal(len(pts))
        x_lu = HLUFactorization(hm).solve(b)
        x_ld = HLDLTFactorization(hm).solve(b)
        np.testing.assert_allclose(x_lu, x_ld, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("factorization",
                             [HLDLTFactorization, HLUFactorization])
    def test_in_place_sweep_leaves_rhs_alone(self, setup, rng,
                                             factorization):
        """One permuted buffer swept in place: the caller's array — any
        layout, any dtype — is only read; real factors take a complex
        right-hand side as the real view of that buffer."""
        pts, tree = setup
        dense = make_surface_operator(pts).to_dense()
        f = factorization(hodlr_from_dense(dense, tree, tol=1e-12))
        n = len(pts)
        base = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        frozen = base.real.copy()
        frozen.setflags(write=False)
        for b in (base, np.asfortranarray(base), base[:, ::2], base[:, 0],
                  frozen, base.real.astype(np.float32), base[:, :0]):
            before = b.copy()
            x = f.solve(b)
            assert np.array_equal(b, before)
            assert x.shape == b.shape
            assert x.dtype == (np.complex128 if np.iscomplexobj(b)
                               else np.float64)
            if not b.size:  # zero columns: nothing to compare
                continue
            ref = np.linalg.solve(dense, b)
            assert np.linalg.norm(x - ref) / np.linalg.norm(ref) < 1e-8

    def test_input_unchanged(self, setup):
        pts, tree = setup
        op = make_surface_operator(pts)
        hm = build_hodlr(op, tree, tol=1e-8)
        before = hm.to_dense()
        HLDLTFactorization(hm)
        np.testing.assert_array_equal(hm.to_dense(), before)

    def test_singular_raises(self, setup):
        _, tree = setup
        hm = hodlr_from_dense(np.zeros((tree.n, tree.n)), tree, tol=1e-8)
        with pytest.raises(SingularMatrixError):
            HLDLTFactorization(hm)


class TestStorage:
    def test_half_the_bytes_of_hlu(self, setup):
        """The paper's symmetric-mode saving: one coupling factor set and
        packed leaf triangles instead of two panels and full LU leaves."""
        pts, tree = setup
        op = make_surface_operator(pts)
        hm = build_hodlr(op, tree, tol=1e-8)
        lu_bytes = HLUFactorization(hm).nbytes()
        ldlt_bytes = HLDLTFactorization(hm).nbytes()
        assert ldlt_bytes < 0.65 * lu_bytes

    def test_d_entries_nonzero(self, setup):
        pts, tree = setup
        op = make_surface_operator(pts)
        f = HLDLTFactorization(build_hodlr(op, tree, tol=1e-8))
        assert np.abs(f.d).min() > 0


class TestContainerIntegration:
    def test_symmetric_problem_uses_ldlt(self, pipe_small):
        from repro.core.config import SolverConfig
        from repro.core.schur_tools import HodlrSchurContainer
        from repro.hmatrix.ldlt_factorization import HLDLTFactorization
        from repro.memory import MemoryTracker

        t = MemoryTracker()
        c = HodlrSchurContainer(pipe_small,
                                SolverConfig(dense_backend="hmat"), t)
        c.factorize(t)
        assert isinstance(c._fact, HLDLTFactorization)
        c.free()
        t.assert_all_freed()

    def test_nonsymmetric_problem_uses_lu(self, aircraft_small):
        from repro.core.config import SolverConfig
        from repro.core.schur_tools import HodlrSchurContainer
        from repro.hmatrix import HLUFactorization
        from repro.memory import MemoryTracker

        t = MemoryTracker()
        c = HodlrSchurContainer(
            aircraft_small,
            SolverConfig(dense_backend="hmat", epsilon=1e-4), t,
        )
        c.factorize(t)
        assert isinstance(c._fact, HLUFactorization)
        c.free()
        t.assert_all_freed()


class TestMirroredAssembly:
    """The symmetric pipe builds, updates and stores only the ``21`` blocks
    of ``S``; the two-sided container (the previous behaviour, reached by
    overriding the flag ``HodlrSchurContainer`` passes) gives the same
    solution bit for bit."""

    @staticmethod
    def _lower_and_two_sided(problem, algorithm, config, monkeypatch):
        """Solve as shipped, then with ``build_hodlr(symmetric=False)``;
        returns both solutions and the two assembled matrices."""
        from repro.core import schur_tools, solve_coupled
        from tools.analysis.watchdog import TrackerBalanceRecorder

        built = []
        build = schur_tools.build_hodlr

        def spy(op, tree, symmetric, **kwargs):
            built.append(build(op, tree, symmetric=symmetric, **kwargs))
            return built[-1]

        recorder = TrackerBalanceRecorder().install()
        try:
            monkeypatch.setattr(schur_tools, "build_hodlr", spy)
            lower = solve_coupled(problem, algorithm, config)
            monkeypatch.setattr(
                schur_tools, "build_hodlr",
                lambda op, tree, symmetric, **kw: spy(op, tree, False, **kw))
            two_sided = solve_coupled(problem, algorithm, config)
        finally:
            recorder.uninstall()
        recorder.verify()
        assert [hm.symmetric for hm in built] == [True, False]
        return lower, two_sided, built

    @pytest.mark.parametrize("algorithm",
                             ["multi_solve", "multi_factorization"])
    def test_solution_is_that_of_the_two_sided_build(
            self, pipe_small, algorithm, monkeypatch):
        from repro.core import SolverConfig

        # one worker: peaks are scheduling-dependent under several
        config = SolverConfig(dense_backend="hmat", n_c=64, n_s_block=128,
                              n_b=2, n_workers=1)
        lower, two_sided, (hm, twin) = self._lower_and_two_sided(
            pipe_small, algorithm, config, monkeypatch)
        # H-LDLᵀ reads the 21 blocks only, which both runs update alike
        assert np.array_equal(lower.x, two_sided.x)
        assert lower.relative_error < config.epsilon
        # half the pieces compressed, folded and recompressed; the stored
        # S is the leaves plus one of two equal-rank sides
        for counter in ("n_panel_compressions", "n_offdiag_updates",
                        "n_offdiag_recompressions"):
            assert 0 < getattr(hm, counter) < 0.6 * getattr(twin, counter)
        assert lower.stats.schur_bytes < 0.7 * two_sided.stats.schur_bytes
        assert lower.stats.peak_bytes < two_sided.stats.peak_bytes

    @pytest.mark.parametrize("n_workers,backend",
                             [(4, "thread"), (4, "process")])
    @pytest.mark.parametrize("algorithm,extra", [
        ("multi_solve", {}),
        ("multi_solve", {"n_s_block": 64}),
        ("multi_factorization", {}),
    ])
    def test_identity_holds_on_every_backend(
            self, pipe_small, algorithm, extra, n_workers, backend,
            monkeypatch):
        from repro.core import SolverConfig, solve_coupled

        config = SolverConfig(dense_backend="hmat", n_c=64, n_b=2,
                              **{"n_s_block": 128, **extra})
        serial = solve_coupled(pipe_small, algorithm, config)
        lower, two_sided, _ = self._lower_and_two_sided(
            pipe_small, algorithm,
            config.with_(n_workers=n_workers, runtime_backend=backend),
            monkeypatch)
        for sol in (lower, two_sided):
            assert np.array_equal(sol.x_v, serial.x_v)
            assert np.array_equal(sol.x_s, serial.x_s)

    def test_complex_nonsymmetric_builds_both_sides(self, aircraft_small,
                                                    monkeypatch):
        """No harness workload runs a complex ℋ assembly: this is the
        guard that the non-symmetric path still crosses, stores and
        updates ``12`` and ``21`` separately and meets ε."""
        from repro.core import SolverConfig, schur_tools, solve_coupled

        built = []
        build = schur_tools.build_hodlr

        def spy(*args, **kwargs):
            built.append((kwargs["symmetric"], build(*args, **kwargs)))
            return built[-1][1]

        monkeypatch.setattr(schur_tools, "build_hodlr", spy)
        config = SolverConfig(dense_backend="hmat", n_c=64, n_s_block=128,
                              n_b=2, epsilon=1e-4)
        sol = solve_coupled(aircraft_small, "multi_solve", config)
        assert sol.relative_error < config.epsilon
        (symmetric, hm), = built
        assert symmetric is False and hm.dtype == np.complex128
        assert not hm.symmetric and hm.sides == ("12", "21")
        root = hm.root
        assert set(root.rk) == {"12", "21"}
        assert not np.array_equal(root.rk12.u, root.rk21.v)
        # both sides took the Schur updates of every panel
        assert {side: acc.n_appends > 0 and acc.pending_rank == 0
                for side, acc in root.acc.items()} == {"12": True, "21": True}
