"""Tests for the blocked triangular solves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from repro.dense.triangular import (
    solve_lower_triangular,
    solve_unit_lower_triangular,
    solve_upper_triangular,
)


def _lower(rng, n, dtype=np.float64):
    l = np.tril(rng.standard_normal((n, n))).astype(dtype)
    np.fill_diagonal(l, 2.0 + np.abs(np.diag(l)))
    return l


class TestLowerSolve:
    @pytest.mark.parametrize("n,bs", [(1, 1), (5, 2), (64, 64), (130, 32),
                                      (200, 128)])
    def test_matches_scipy(self, rng, n, bs):
        l = _lower(rng, n)
        b = rng.standard_normal((n, 3))
        x = solve_lower_triangular(l, b, block_size=bs)
        np.testing.assert_allclose(x, solve_triangular(l, b, lower=True),
                                   rtol=1e-10)

    def test_vector_rhs_stays_vector(self, rng):
        l = _lower(rng, 20)
        b = rng.standard_normal(20)
        x = solve_lower_triangular(l, b, block_size=8)
        assert x.shape == (20,)
        np.testing.assert_allclose(l @ x, b, rtol=1e-10)

    def test_complex(self, rng):
        n = 40
        l = _lower(rng, n).astype(complex)
        l += 1j * np.tril(rng.standard_normal((n, n)), -1)
        b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        x = solve_lower_triangular(l, b, block_size=16)
        np.testing.assert_allclose(l @ x, b, rtol=1e-10)

    def test_shape_mismatch_rejected(self, rng):
        l = _lower(rng, 5)
        with pytest.raises(ValueError):
            solve_lower_triangular(l, np.zeros(6))


class TestUnitLowerSolve:
    def test_diagonal_is_ignored(self, rng):
        n = 50
        l = _lower(rng, n)
        b = rng.standard_normal((n, 2))
        x1 = solve_unit_lower_triangular(l, b, block_size=16)
        l_scrambled = l.copy()
        np.fill_diagonal(l_scrambled, 1e9)  # unit solves must not read it
        x2 = solve_unit_lower_triangular(l_scrambled, b, block_size=16)
        np.testing.assert_allclose(x1, x2)
        lu = np.tril(l, -1) + np.eye(n)
        # a random unit-lower triangle is ill-conditioned (|x| reaches 1e5
        # here, and SciPy's own solve misses rtol=1e-10 on most seeds):
        # bound its residual the way backward stability does,
        # |L x − b| ≤ n ε |L| |x| ...
        bound = n * np.finfo(float).eps * (np.abs(lu) @ np.abs(x1))
        assert np.all(np.abs(lu @ x1 - b) <= bound)
        # ... and keep the strict entrywise check on a well-conditioned one
        lw = np.tril(l, -1) / n + np.diag(np.diag(l_scrambled))
        xw = solve_unit_lower_triangular(lw, b, block_size=16)
        np.testing.assert_allclose((np.tril(lw, -1) + np.eye(n)) @ xw, b,
                                   rtol=1e-10)


class TestUpperSolve:
    @pytest.mark.parametrize("n,bs", [(3, 2), (64, 16), (129, 64)])
    def test_matches_scipy(self, rng, n, bs):
        u = _lower(rng, n).T.copy()
        b = rng.standard_normal((n, 4))
        x = solve_upper_triangular(u, b, block_size=bs)
        np.testing.assert_allclose(x, solve_triangular(u, b, lower=False),
                                   rtol=1e-10)

    def test_residual_small(self, rng):
        u = _lower(rng, 77).T.copy()
        b = rng.standard_normal(77)
        x = solve_upper_triangular(u, b, block_size=25)
        np.testing.assert_allclose(u @ x, b, rtol=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 60),
    bs=st.integers(1, 70),
    seed=st.integers(0, 1000),
)
def test_property_lower_solve_inverts(n, bs, seed):
    """For any size/block combination, L @ solve(L, b) == b."""
    rng = np.random.default_rng(seed)
    l = _lower(rng, n)
    b = rng.standard_normal(n)
    x = solve_lower_triangular(l, b, block_size=bs)
    np.testing.assert_allclose(l @ x, b, rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("lower", [True, False])
@pytest.mark.parametrize("order", ["C", "F"])
def test_kernel_multiply_matches_numpy(dtype, lower, order):
    """``RowBlockKernel.multiply`` is ``x ← op(a) x`` in place on a row
    block of a larger buffer, for every transpose / unit-diagonal flag and
    width (one column takes ``trmv``); the triangle it is not told about,
    and the diagonal when ``unit``, are never read."""
    from repro.dense import RowBlockKernel

    rng = np.random.default_rng(4)
    p = 60
    full = rng.standard_normal((p, p)).astype(dtype)
    if dtype is np.complex128:
        full = full + 1j * rng.standard_normal((p, p))
    kern = RowBlockKernel(dtype)
    for trans in (False, True):
        for unit in (False, True):
            tri = np.tril(full) if lower else np.triu(full)
            if unit:
                np.fill_diagonal(tri, 1.0)
            op = tri.T if trans else tri
            a = np.array(full, order=order)  # the other triangle: garbage
            for m in (1, 3, 300):
                buf = rng.standard_normal((p + 7, m)).astype(dtype)
                want = op @ buf[5:5 + p]
                kern.multiply(a, buf[5:5 + p], lower, trans=trans, unit=unit)
                np.testing.assert_allclose(buf[5:5 + p], want, rtol=1e-13,
                                           atol=1e-13 * np.abs(want).max())
