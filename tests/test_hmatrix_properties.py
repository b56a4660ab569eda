"""Additional property-based tests for the hierarchical matrix algebra."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hmatrix import (
    HLUFactorization,
    build_cluster_tree,
    hodlr_from_dense,
)
from repro.hmatrix.rk import RkMatrix, recompress


def _random_points(rng, n):
    return rng.uniform(-1, 1, size=(n, 3)) * np.array([4.0, 1.0, 1.0])


def _diag_dominant(rng, n):
    a = rng.standard_normal((n, n)) * 0.1
    a += np.diag(2.0 + rng.uniform(0, 1, n))
    return a


@settings(max_examples=15, deadline=None)
@given(n=st.integers(10, 200), leaf=st.integers(4, 64),
       seed=st.integers(0, 200))
def test_property_hodlr_roundtrip(n, leaf, seed):
    """Dense → HODLR → dense is within tolerance for any shape/leaf."""
    rng = np.random.default_rng(seed)
    pts = _random_points(rng, n)
    tree = build_cluster_tree(pts, leaf_size=leaf)
    a = _diag_dominant(rng, n)
    hm = hodlr_from_dense(a, tree, tol=1e-10)
    err = np.abs(hm.to_dense() - a).max()
    assert err < 1e-6 * max(1.0, np.abs(a).max())


@settings(max_examples=12, deadline=None)
@given(n=st.integers(16, 150), leaf=st.integers(8, 48),
       seed=st.integers(0, 200))
def test_property_hlu_solves(n, leaf, seed):
    """H-LU inverts any diagonally dominant matrix at its tolerance."""
    rng = np.random.default_rng(seed)
    pts = _random_points(rng, n)
    tree = build_cluster_tree(pts, leaf_size=leaf)
    a = _diag_dominant(rng, n)
    f = HLUFactorization(hodlr_from_dense(a, tree, tol=1e-11))
    b = rng.standard_normal(n)
    x = f.solve(b)
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-6


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(20, 120), leaf=st.integers(8, 40),
    rows=st.integers(1, 40), cols=st.integers(1, 40),
    seed=st.integers(0, 200),
)
def test_property_axpy_arbitrary_subsets(n, leaf, rows, cols, seed):
    """Compressed AXPY is exact-to-tolerance on any index subset."""
    rng = np.random.default_rng(seed)
    pts = _random_points(rng, n)
    tree = build_cluster_tree(pts, leaf_size=leaf)
    a = _diag_dominant(rng, n)
    hm = hodlr_from_dense(a, tree, tol=1e-11)
    r = rng.choice(n, size=min(rows, n), replace=False)
    c = rng.choice(n, size=min(cols, n), replace=False)
    upd = rng.standard_normal((len(r), len(c)))
    hm.axpy_dense(1.0, upd, r, c)
    hm.flush_accumulators()
    ref = a.copy()
    ref[np.ix_(r, c)] += upd
    assert np.abs(hm.to_dense() - ref).max() < 1e-5


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(1, 40), n=st.integers(1, 40),
    r1=st.integers(0, 5), r2=st.integers(0, 5), seed=st.integers(0, 500),
)
def test_property_rk_add_is_additive(m, n, r1, r2, seed):
    """``recompress`` of two stacked Rk blocks equals their dense sum
    within tolerance."""
    rng = np.random.default_rng(seed)

    def rk(r):
        if r == 0:
            return RkMatrix.zeros(m, n)
        return RkMatrix(rng.standard_normal((m, r)),
                        rng.standard_normal((n, r)))

    a, b = rk(r1), rk(r2)
    out = recompress([a.u, b.u], [a.v, b.v], tol=1e-12)
    np.testing.assert_allclose(
        out.to_dense(), a.to_dense() + b.to_dense(),
        atol=1e-7 * max(1.0, np.linalg.norm(a.to_dense())
                        + np.linalg.norm(b.to_dense())),
    )
    assert out.rank <= r1 + r2
