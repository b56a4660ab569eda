"""Property-based tests across the solver pipeline.

Hypothesis generates random problem shapes and random well-conditioned
systems; the invariants checked here are the ones every paper experiment
silently relies on: factor-solve correctness on arbitrary grids, Schur
identity on random couplings, the algebraic equivalence of the four
coupling algorithms, and the accuracy contract — every configuration the
knobs reach solves within the compression threshold ε.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import SolverConfig, solve_coupled
from repro.fembem import generate_aircraft_case, generate_pipe_case
from repro.fembem.fem import assemble_fem_matrix
from repro.fembem.mesh import StructuredGrid
from repro.sparse import SparseSolver
from repro.utils.errors import ConfigurationError


@settings(max_examples=12, deadline=None)
@given(
    nx=st.integers(2, 9), ny=st.integers(2, 7), nz=st.integers(2, 6),
    leaf=st.integers(8, 64), amal=st.integers(0, 32),
    seed=st.integers(0, 100),
)
def test_property_multifrontal_solves_any_grid(nx, ny, nz, leaf, amal, seed):
    """Factor+solve is correct for any grid shape and tree parameters."""
    grid = StructuredGrid(nx, ny, nz)
    a = assemble_fem_matrix(grid, mode="real_spd")
    solver = SparseSolver(leaf_size=leaf, amalgamate=amal)
    f = solver.factorize(solver.analyse(a, grid.points()), a,
                         symmetric_values=True)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(a.shape[0])
    x = f.solve(b)
    res = np.linalg.norm(a @ b * 0 + a @ x - b) / np.linalg.norm(b)
    assert res < 1e-9
    f.free()


@settings(max_examples=10, deadline=None)
@given(
    k=st.integers(1, 30), density=st.floats(0.01, 0.1),
    seed=st.integers(0, 100), unsym=st.booleans(),
)
def test_property_schur_identity(k, density, seed, unsym):
    """factorize_schur returns A22 − A21 A11⁻¹ A12 for random couplings."""
    grid = StructuredGrid(6, 5, 4)
    a = assemble_fem_matrix(grid, mode="real_spd")
    n = a.shape[0]
    c = sp.random(k, n, density=density, format="csr", random_state=seed)
    b = (sp.random(k, n, density=density, format="csr",
                   random_state=seed + 1).T if unsym else c.T)
    w = sp.bmat([[a, b], [c, None]], format="csr")
    solver = SparseSolver()
    f = solver.factorize_schur(
        solver.analyse(a, grid.points()), w, np.arange(n, n + k),
        symmetric_values=not unsym,
    )
    # spsolve squeezes single-column right-hand sides; normalise shapes
    ref = -(c @ spla.spsolve(a.tocsc(), b.toarray()).reshape(n, k))
    np.testing.assert_allclose(f.schur, ref, atol=1e-9)
    f.free()


@settings(max_examples=6, deadline=None)
@given(
    n_total=st.integers(800, 2_200),
    seed=st.integers(0, 20),
)
def test_property_algorithms_equivalent(n_total, seed):
    """Baseline, advanced, multi-solve and multi-factorization compute the
    same solution for any generated system (uncompressed backends)."""
    problem = generate_pipe_case(n_total, seed=seed)
    config = SolverConfig(sparse_compression=False, n_c=64, n_b=2)
    reference = None
    for algorithm in ("baseline", "advanced", "multi_solve",
                      "multi_factorization"):
        sol = solve_coupled(problem, algorithm, config)
        assert sol.relative_error < 1e-8
        if reference is None:
            reference = sol.x
        else:
            np.testing.assert_allclose(sol.x, reference, atol=1e-7)


@settings(max_examples=8, deadline=None)
@given(
    n_c=st.integers(1, 512), n_b=st.integers(1, 12),
)
def test_property_block_sizes_never_change_answers(pipe_tiny, n_c, n_b):
    """Any block-size choice yields the same solution (only cost varies)."""
    config = SolverConfig(sparse_compression=False, n_c=n_c, n_b=n_b)
    ms = solve_coupled(pipe_tiny, "multi_solve", config)
    mf = solve_coupled(pipe_tiny, "multi_factorization", config)
    np.testing.assert_allclose(ms.x, mf.x, atol=1e-7)


@pytest.fixture(scope="module")
def pipe_tiny():
    return generate_pipe_case(900, seed=11)


@settings(max_examples=50, deadline=None, derandomize=True)
# the compressed corners at the largest size, always run: both cases ×
# both ε × both compressed algorithms, the other knobs spread across them
@example(aircraft=False, n_total=2_400, seed=0, epsilon=1e-3,
         algorithm="multi_solve", dense_backend="hmat",
         sparse_compression=True, n_s_block=256, n_workers=1, n_b=2)
@example(aircraft=False, n_total=2_400, seed=1, epsilon=1e-4,
         algorithm="multi_factorization", dense_backend="hmat",
         sparse_compression=True, n_s_block=64, n_workers=4, n_b=2)
@example(aircraft=True, n_total=2_400, seed=2, epsilon=1e-3,
         algorithm="multi_factorization", dense_backend="hmat",
         sparse_compression=False, n_s_block=4096, n_workers=4, n_b=2)
@example(aircraft=True, n_total=2_400, seed=3, epsilon=1e-4,
         algorithm="multi_solve", dense_backend="hmat",
         sparse_compression=True, n_s_block=256, n_workers=1, n_b=2)
@given(
    aircraft=st.booleans(),
    n_total=st.integers(1_200, 2_400),
    seed=st.integers(0, 20),
    epsilon=st.sampled_from([1e-3, 1e-4]),
    # hypothesis leans towards each list's first entry: the compressed
    # lanes, the ones that round at ε, come first
    algorithm=st.sampled_from(["multi_solve", "multi_factorization",
                               "baseline", "advanced"]),
    dense_backend=st.sampled_from(["hmat", "spido", "spido_ooc"]),
    sparse_compression=st.booleans(),
    # with n_c = 64: a 4-panel flush window, a 1-panel one, one over all S
    n_s_block=st.sampled_from([256, 64, 4096]),
    n_workers=st.sampled_from([1, 4]),
    n_b=st.sampled_from([2, 1, 3]),
)
def test_property_solution_within_epsilon(
    aircraft, n_total, seed, epsilon, algorithm, dense_backend,
    sparse_compression, n_s_block, n_workers, n_b,
):
    """The accuracy oracle: on the real symmetric pipe and the complex
    non-symmetric aircraft, every algorithm × backend × BLR ×
    ``n_s_block`` × ``n_b`` × worker count the solver accepts
    returns a solution whose backward residual and forward error are both
    ≤ ε.  ``derandomize`` draws the same cases on every run."""
    if aircraft:
        # the test fixtures' larger surface share, so S is big enough to
        # be compressed into more than a few leaves
        problem = generate_aircraft_case(n_total, seed=seed,
                                         bem_fraction=0.25)
    else:
        problem = generate_pipe_case(n_total, seed=seed)
    config = SolverConfig(
        dense_backend=dense_backend, epsilon=epsilon,
        sparse_compression=sparse_compression,
        n_workers=n_workers, runtime_backend="thread", n_c=64,
        n_s_block=n_s_block, n_b=n_b,
    )
    try:
        sol = solve_coupled(problem, algorithm, config)
    except ConfigurationError:
        # baseline and advanced receive S dense: spido only
        assert algorithm in ("baseline", "advanced")
        assert dense_backend != "spido"
        return
    assert problem.residual_norm(sol.x_v, sol.x_s) <= epsilon
    assert sol.relative_error <= epsilon
