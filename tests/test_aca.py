"""Tests for adaptive cross approximation."""

import numpy as np
import pytest

from repro.fembem.bem import helmholtz_kernel, laplace_kernel
from repro.fembem.mesh import box_surface_points
from repro.hmatrix.aca import aca
from repro.hmatrix.rk import RkMatrix
from repro.utils.errors import ConfigurationError


def _aca_of(a, tol, **kwargs):
    """ACA of an explicit array through the one accessor interface."""
    return aca(lambda r, c: a[r][:, c], a.shape, tol, dtype=a.dtype,
               **kwargs)


class _Logged:
    """The ``block(rows, cols)`` accessor of an explicit array, recording
    each request as ``(kind, row indices, column indices)`` with kind
    ``row`` (one whole row), ``col`` (one whole cross column) or ``probe``
    (the index array of a verification round)."""

    def __init__(self, a):
        self.a = a
        self.calls = []

    def __call__(self, rows, cols):
        out = self.a[rows][:, cols]
        kind = ("probe" if isinstance(cols, np.ndarray)
                else "row" if out.shape[0] == 1 else "col")
        m, n = self.a.shape
        self.calls.append((kind, np.arange(m)[rows], np.arange(n)[cols]))
        return out

    def count(self, kind):
        return sum(1 for k, _, _ in self.calls if k == kind)

    def pivot_rows(self):
        return [int(rows[0]) for kind, rows, _ in self.calls if kind == "row"]

    def probes(self):
        return [cols for kind, _, cols in self.calls if kind == "probe"]

    def column_evaluations(self):
        return sum(len(cols) for kind, _, cols in self.calls if kind != "row")

    def entries(self):
        return sum(len(rows) * len(cols) for _, rows, cols in self.calls)


def reference_aca(block, shape, tol, max_rank=None, verify_columns=4):
    """Straight per-rank-loop ACA: the oracle the blocked one must match.

    Same pivoting rule, cross criterion and seeded probe verification,
    written with Python lists and sets and one kernel request per vector
    (probe columns are requested twice, a forced column a third time).
    """
    m, n = shape
    cap = min(m, n) if max_rank is None else min(max_rank, m, n)
    row_fn = lambda i: block(slice(i, i + 1), slice(0, n))[0]  # noqa: E731
    col_fn = lambda j: block(slice(0, m), slice(j, j + 1))[:, 0]  # noqa: E731
    us, vs, norm2_est = [], [], 0.0
    used_rows, used_cols = set(), set()
    rng = np.random.default_rng((m * 0x9E3779B1 + n) & 0x7FFFFFFF)
    i, forced_col = 0, None

    def residual(vec, coeffs, others):
        vec = np.array(vec, copy=True)
        for coeff, other in zip(coeffs, others, strict=True):
            vec -= coeff * other
        return vec

    while len(us) < cap:
        if forced_col is not None:
            j, forced_col = forced_col, None
            c = residual(col_fn(j), [vk[j] for vk in vs], us)
            choices = np.abs(c)
            choices[list(used_rows)] = -1.0
            i = int(np.argmax(choices))
            r = residual(row_fn(i), [uk[i] for uk in us], vs)
            if r[j] == 0:
                break
        else:
            used_rows.add(i)
            r = residual(row_fn(i), [uk[i] for uk in us], vs)
            search = np.abs(r)
            search[list(used_cols)] = 0
            j = int(np.argmax(search))
            if r[j] == 0:
                unused = [k for k in range(m) if k not in used_rows]
                if not unused:
                    break
                i = unused[0]
                continue
            c = residual(col_fn(j), [vk[j] for vk in vs], us)
        used_rows.add(i)
        used_cols.add(j)
        u_new, v_new = c, r / r[j]
        nu, nv = np.linalg.norm(u_new), np.linalg.norm(v_new)
        norm2_est += (nu * nv) ** 2 + sum(
            2.0 * abs(np.vdot(uk, u_new)) * abs(np.vdot(vk, v_new))
            for uk, vk in zip(us, vs, strict=True))
        us.append(u_new)
        vs.append(v_new)
        converged = nu * nv <= tol * np.sqrt(max(norm2_est, 1e-300))
        if converged and verify_columns > 0 and len(us) < cap:
            pool = np.setdiff1d(np.arange(n), sorted(used_cols))
            if len(pool):
                probes = rng.choice(pool, size=min(verify_columns, len(pool)),
                                    replace=False)
                norms = [np.linalg.norm(residual(
                    col_fn(jp), [vk[jp] for vk in vs], us)) for jp in probes]
                ref2 = sum(np.linalg.norm(col_fn(jp)) ** 2 for jp in probes)
                worst = int(np.argmax(norms))
                if norms[worst] > tol * np.sqrt(max(ref2, 1e-300)):
                    forced_col = int(probes[worst])
                    continue
        if converged:
            break
        choices = np.abs(u_new)
        choices[list(used_rows)] = -1.0
        i = int(np.argmax(choices))
    if not us:
        return RkMatrix.zeros(m, n)
    return RkMatrix(np.stack(us, axis=1), np.stack(vs, axis=1))


@pytest.fixture(scope="module")
def separated_clouds():
    """Two well-separated point clouds — an admissible block."""
    a = box_surface_points((2.0, 2.0, 2.0), 120, seed=1)
    b = box_surface_points((2.0, 2.0, 2.0), 100, seed=2,
                           origin=(8.0, 0.0, 0.0))
    return a, b


def _two_scale_block():
    """Block-diagonal pair of kernel blocks: crossing from row 0 converges
    on the first one while the second is still untouched, so only a probe
    column can reveal it."""
    x = box_surface_points((2.0, 2.0, 2.0), 90, seed=5)
    y = box_surface_points((2.0, 2.0, 2.0), 70, seed=6, origin=(6.0, 0.0, 0.0))
    g = laplace_kernel(0.05)(x, y)
    a = np.zeros_like(g)
    a[:50, :40] = g[:50, :40]
    a[50:, 40:] = 10.0 * g[50:, 40:]
    return a


class TestAcaOnKernels:
    def test_laplace_admissible_block_compresses(self, separated_clouds):
        x, y = separated_clouds
        g = laplace_kernel(0.05)(x, y)
        rk = _aca_of(g, tol=1e-8)
        assert rk.rank < min(g.shape) // 3  # genuinely low rank
        err = np.abs(rk.to_dense() - g).max()
        assert err < 1e-6 * np.abs(g).max()

    def test_tolerance_controls_rank(self, separated_clouds):
        x, y = separated_clouds
        g = laplace_kernel(0.05)(x, y)
        loose = _aca_of(g, tol=1e-2).rank
        tight = _aca_of(g, tol=1e-9).rank
        assert loose < tight

    def test_helmholtz_complex_kernel(self, separated_clouds):
        x, y = separated_clouds
        g = helmholtz_kernel(1.0, 0.05)(x, y)
        rk = aca(_Logged(g), g.shape, tol=1e-8, dtype=g.dtype)
        err = np.abs(rk.to_dense() - g).max()
        assert err < 1e-6 * np.abs(g).max()

    def test_complex_block_promotes_a_real_factor_dtype(self, separated_clouds):
        x, y = separated_clouds
        g = helmholtz_kernel(1.0, 0.05)(x, y)
        rk = aca(_Logged(g), g.shape, tol=1e-8)  # dtype left at float64
        assert rk.dtype == np.complex128
        assert np.abs(rk.to_dense() - g).max() < 1e-6 * np.abs(g).max()

    def test_lazy_evaluation_only_touches_crosses(self, separated_clouds):
        x, y = separated_clouds
        g = laplace_kernel(0.05)(x, y)
        log = _Logged(g)
        rk = aca(log, g.shape, tol=1e-6, dtype=g.dtype)
        # ACA's whole point: far fewer evaluations than the full block
        # (the verification probes add a handful of extra columns)
        assert log.count("row") <= rk.rank + 2
        assert log.column_evaluations() <= 2 * rk.rank + 16
        assert log.column_evaluations() < g.shape[1] // 2


class TestAcaEdgeCases:
    def test_zero_block(self):
        rk = _aca_of(np.zeros((10, 8)), tol=1e-6)
        assert rk.rank == 0

    def test_exact_low_rank_terminates_early(self, rng):
        a = np.outer(rng.standard_normal(20), rng.standard_normal(15))
        a += np.outer(rng.standard_normal(20), rng.standard_normal(15))
        rk = _aca_of(a, tol=1e-12)
        assert rk.rank <= 4  # small overshoot allowed, not min(m,n)
        np.testing.assert_allclose(rk.to_dense(), a, atol=1e-8)

    def test_max_rank_cap(self, rng):
        a = rng.standard_normal((30, 30))
        rk = _aca_of(a, tol=1e-15, max_rank=5)
        assert rk.rank <= 5

    def test_full_rank_block_recovered_exactly_at_cap(self, rng):
        a = rng.standard_normal((12, 12))
        rk = _aca_of(a, tol=1e-15)
        np.testing.assert_allclose(rk.to_dense(), a, atol=1e-7)

    def test_single_row_block(self, rng):
        a = rng.standard_normal((1, 10))
        rk = _aca_of(a, tol=1e-10)
        np.testing.assert_allclose(rk.to_dense(), a, atol=1e-10)

    def test_single_column_block(self, rng):
        a = rng.standard_normal((10, 1))
        rk = _aca_of(a, tol=1e-10)
        np.testing.assert_allclose(rk.to_dense(), a, atol=1e-10)

    def test_block_with_zero_rows(self, rng):
        a = np.zeros((10, 10))
        a[7] = rng.standard_normal(10)
        rk = _aca_of(a, tol=1e-10)
        np.testing.assert_allclose(rk.to_dense(), a, atol=1e-10)

    def test_empty_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            aca(lambda rows, cols: None, (0, 5), tol=1e-3)

    def test_non_2d_dense_rejected(self):
        with pytest.raises(ConfigurationError):
            _aca_of(np.zeros(5), tol=1e-3)


def _oracle_cases():
    x = box_surface_points((2.0, 2.0, 2.0), 120, seed=1)
    y = box_surface_points((2.0, 2.0, 2.0), 100, seed=2, origin=(8.0, 0.0, 0.0))
    rng = np.random.default_rng(3)
    laplace = laplace_kernel(0.05)(x, y)
    helmholtz = helmholtz_kernel(1.0, 0.05)(x, y)
    rank3 = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 55))
    one_row = np.zeros((12, 9))
    one_row[7] = rng.standard_normal(9)
    return {
        "laplace-tall": (laplace, 1e-8, None),
        "laplace-wide": (np.ascontiguousarray(laplace.T), 1e-6, None),
        "helmholtz-tall": (helmholtz, 1e-8, None),
        "helmholtz-wide": (np.ascontiguousarray(helmholtz.T), 1e-5, None),
        "exact-rank-3": (rank3, 1e-12, None),
        "zero": (np.zeros((10, 8)), 1e-6, None),
        "exhausted-rows": (one_row, 1e-10, None),
        "max-rank-cap": (laplace, 1e-12, 5),
        "dense-past-one-panel": (rng.standard_normal((40, 36)), 1e-15, None),
        "probe-forces-a-cross": (_two_scale_block(), 1e-6, None),
    }


_ORACLE_CASES = _oracle_cases()


class TestBlockedAgainstReference:
    @pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
    def test_same_crosses_as_the_straight_loop(self, case):
        a, tol, max_rank = _ORACLE_CASES[case]
        old, new = _Logged(a), _Logged(a)
        ref = reference_aca(old, a.shape, tol, max_rank)
        rk = aca(new, a.shape, tol, max_rank=max_rank, dtype=a.dtype)
        assert rk.rank == ref.rank
        assert new.pivot_rows() == old.pivot_rows()
        assert rk.shape == a.shape and rk.dtype == a.dtype
        assert rk.u.flags.c_contiguous and rk.v.flags.c_contiguous
        if max_rank is not None:
            assert rk.rank <= max_rank
        # v = residual row / pivot carries the rounding of the residual
        # amplified by 1/|pivot| ~ 1/‖u‖∞: compare each cross balanced
        atol = 1e-12 * max(np.abs(a).max(), 1.0)
        weight = np.abs(ref.u).max(axis=0, initial=0.0)
        np.testing.assert_allclose(rk.u, ref.u, rtol=0, atol=atol)
        np.testing.assert_allclose(rk.v * weight, ref.v * weight,
                                   rtol=0, atol=atol)
        np.testing.assert_allclose(rk.to_dense(), ref.to_dense(),
                                   rtol=0, atol=atol)

    def test_probe_forces_a_cross_the_criterion_missed(self):
        a = _two_scale_block()
        heuristic = aca(_Logged(a), a.shape, 1e-6, verify_columns=0)
        log = _Logged(a)
        verified = aca(log, a.shape, 1e-6)
        norm = np.linalg.norm(a)
        # the textbook criterion stops on the first diagonal block ...
        assert np.linalg.norm(heuristic.to_dense() - a) > 0.5 * norm
        # ... a probe column lands in the second and is crossed directly:
        # a forced cross fetches its row but no column
        assert log.count("row") > log.count("col")
        assert verified.rank > heuristic.rank
        assert np.linalg.norm(verified.to_dense() - a) < 1e-5 * norm

    @pytest.mark.parametrize("case", ["laplace-tall", "helmholtz-wide",
                                      "probe-forces-a-cross"])
    def test_every_probe_column_is_evaluated_once(self, case):
        a, tol, _ = _ORACLE_CASES[case]
        m, n = a.shape
        old, new = _Logged(a), _Logged(a)
        reference_aca(old, a.shape, tol)
        rk = aca(new, a.shape, tol, dtype=a.dtype)
        rounds = new.count("probe")
        probed = sum(len(cols) for cols in new.probes())
        forced = new.count("row") - new.count("col")
        assert rounds >= 1 and probed <= 4 * rounds
        assert all(len(set(cols)) == len(cols) for cols in new.probes())
        # one row per cross; one column per cross unless a probe forced it,
        # whose residual is reused; one request per verification round
        assert new.count("row") == rk.rank
        assert new.count("col") + forced == rk.rank
        assert new.column_evaluations() == new.count("col") + probed
        # the straight loop asks for each probe column twice (residual and
        # reference norm) and for a forced column a third time
        assert old.column_evaluations() == (new.count("col") + forced
                                            + 2 * probed)
        assert new.entries() <= (2 * rk.rank + 4 * rounds + 2) * max(m, n)
