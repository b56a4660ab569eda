"""Micro-benchmarks of the solver building blocks.

Not tied to a specific paper figure; tracks the performance of the
kernels every coupling algorithm is built from (blocked dense
factorizations, hierarchical matvec/factorization, ACA compression,
multifrontal factorize/solve).

Run as a script it measures the **solve sweeps** and the **numeric
phase**, the layers under ``sparse.solve_s`` / ``hmatrix.solve_s`` and
``sparse.numeric_s`` of the harness::

    python benchmarks/bench_kernels.py [--json BENCH_kernels.json]

Rows: ``mf.solve`` at 1 / 2 / 64 / 256 columns for LDLᵀ-real (pipe) and
LU-complex (aircraft) factors, and the H-LDLᵀ solve at 1 / 64 columns.
Each is min-of-k milliseconds with the q1–q3 spread, the GB/s of factor
bytes it streamed (a solve reads every factor twice, forward and backward)
and the floor ``2 × factor_bytes / bandwidth`` against a bandwidth measured
on the spot; the one-column ``mf.solve`` rows also give the front visits
of the two sweeps (twice the fronts with pivots) and the microseconds per
visit.  A sweep is bandwidth-bound only when the panel is narrow;
wide panels are bounded by BLAS-3 flops, and their GB/s says how much
reuse each streamed byte got.

Numeric-phase rows: ``MultifrontalFactorization`` on a ready analysis for
LDLᵀ-real (pipe), LU on one multi-factorization ``W`` block (pipe, half the
surface as Schur variables) — kept, as ``factorize_schur`` runs it, and
Schur-only (``keep_factors=False``), as ``schur_complement`` runs it for
every block but the last — and LU-complex (aircraft), min-of-k with
spread and the fastest run split into *plan* (``_entry_plan``), *eliminate*
(pivot block, panel solves, contribution update), *compress*
(``compress_panel``) — timed by wrapping those calls — and *assemble*
(zero the frame, scatter the entries) / *extend-add*, which are inline in
the front loop and therefore replayed on the same index maps and sizes;
*other* is what is left of the loop (contribution-block copies, tracker).
``compress_panel`` alone is timed on a wide and a tall panel, one that the
rank test keeps and one that it rejects.

ℋ-assembly rows, the layers under ``hmatrix.build_s`` / ``fembem.kernel_s``
and ``hmatrix.precompress_s``: ``build_hodlr`` of ``A_ss`` on the pipe
surface at the solver's default ε (the tolerance ``S`` is built and
rounded at), both sides crossed and stored and the
lower side only (``symmetric=True``) — min-of-k, the ``KernelMatrix.block``
calls and the entries they evaluated as a share of the off-diagonal blocks'
entries, the stored MiB —
and ``RkMatrix.from_dense`` on a 960 × 217 piece with singular values
``0.65 ** i`` (numerical rank 17 at ε = 1e-3), the rank-first Gram branch
against the SVD it replaced.

Analysis rows, the layer under ``sparse.analysis_s``: nested dissection
(with amalgamation, ``SparseSolver.build_tree``), ``symbolic_analysis`` of
the interior and ``extend_symbolic_with_border`` of one
multi-factorization ``W`` block (half the surface as Schur variables) onto
it, for the pipe and the aircraft, min-of-k with spread.  Kernel rows, the
primitive under both solve sweeps: ``RowBlockKernel.solve`` (``trsm`` /
``trsv``) against ``RowBlockKernel.multiply`` (``trmm`` / ``trmv``) with the
inverted factor, on C-ordered unit-lower pivot blocks of 60 and 157 rows
(157: the pipe's largest), 256 columns and one; each the
minimum of single timed calls, in microseconds.

Dense-factorization rows, the layer under ``dense.factorize_s``: the
SPIDO factorization of ``S`` at the harness aircraft's and pipe's ``n_s``
— complex LU at n = 2,252, ``lu_factor`` into a fresh buffer against
:func:`~repro.dense.lu_factor_inplace` (one ``getrf`` on ``S.T``), and
real LDLᵀ at n = 1,950, :func:`~repro.dense.blocked_ldlt` copying against
``overwrite=True`` — min-of-k seconds with spread and GFlop/s
(``(2/3)n³`` for LU, ``n³/3`` for LDLᵀ, ×4 complex); ``S`` is refilled,
untimed, before every call.

Solve-width rows, the layer under ``serving.server_solve_p50_ms``: one
``CoupledFactorization.solve`` on pipe 8k (hmat, ε 1e-3, one worker) at
1, 2, 3, 4, 8, 16, 32 and 64 columns (1: a vector, as a served request
sends it), then two single-column solves back to back and two on two
threads at once — min-of-k milliseconds with spread and per column.  The
crossover width k* is the narrowest panel that beats as many back-to-back
single solves; a server only gains from gluing requests into panels when
its clients queue k* of them.
"""

import argparse
import json
import pathlib
import sys
import time
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest

from repro import SolverConfig
from repro.dense import blocked_ldlt, lu_factor_inplace
from repro.fembem.bem import make_surface_operator
from repro.fembem.mesh import box_surface_points
from repro.hmatrix import (
    HLDLTFactorization,
    HLUFactorization,
    aca,
    build_cluster_tree,
    build_hodlr,
)
from repro.sparse import SparseSolver


@pytest.fixture(scope="module")
def dense_matrix():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((768, 768))
    return a + 80 * np.eye(768)


@pytest.fixture(scope="module")
def surface_setup():
    pts = box_surface_points((8.0, 2.0, 2.0), 1_200, seed=2)
    tree = build_cluster_tree(pts, leaf_size=64)
    op = make_surface_operator(pts, kind="laplace")
    return pts, tree, op


def test_lu_factor_inplace_kernel(benchmark, dense_matrix):
    benchmark.pedantic(lu_factor_inplace,
                       setup=lambda: ((dense_matrix.copy(),), {}),
                       rounds=3, iterations=1)


def test_blocked_ldlt_kernel(benchmark, dense_matrix):
    sym = dense_matrix + dense_matrix.T
    benchmark.pedantic(blocked_ldlt, args=(sym,),
                       kwargs={"block_size": 128}, rounds=3, iterations=1)


def test_hodlr_assembly(benchmark, surface_setup):
    _, tree, op = surface_setup
    hm = benchmark.pedantic(build_hodlr, args=(op, tree),
                            kwargs={"tol": 1e-4}, rounds=1, iterations=1)
    assert hm.compression_ratio() < 1.0


def test_hodlr_matvec(benchmark, surface_setup):
    _, tree, op = surface_setup
    hm = build_hodlr(op, tree, tol=1e-6)
    x = np.random.default_rng(1).standard_normal((tree.n, 8))
    benchmark.pedantic(hm.matvec, args=(x,), rounds=5, iterations=1)


def test_hlu_factorization(benchmark, surface_setup):
    _, tree, op = surface_setup
    hm = build_hodlr(op, tree, tol=1e-6)
    benchmark.pedantic(HLUFactorization, args=(hm,), rounds=1, iterations=1)


def test_aca_compression(benchmark):
    x = box_surface_points((2.0, 2.0, 2.0), 400, seed=3)
    y = box_surface_points((2.0, 2.0, 2.0), 400, seed=4,
                           origin=(8.0, 0.0, 0.0))
    from repro.fembem.bem import laplace_kernel
    g = laplace_kernel(0.05)(x, y)
    rk = benchmark.pedantic(
        aca, args=(lambda r, c: g[r][:, c], g.shape, 1e-6),
        kwargs={"dtype": g.dtype}, rounds=3, iterations=1,
    )
    assert rk.rank < 60


def test_multifrontal_factorize(benchmark, pipe_8k):
    def factorize():
        solver = SparseSolver()
        f = solver.factorize(solver.analyse(pipe_8k.a_vv, pipe_8k.coords_v),
                             pipe_8k.a_vv, symmetric_values=True)
        f.free()
    benchmark.pedantic(factorize, rounds=2, iterations=1)


def test_multifrontal_solve(benchmark, pipe_8k):
    solver = SparseSolver()
    f = solver.factorize(solver.analyse(pipe_8k.a_vv, pipe_8k.coords_v),
                         pipe_8k.a_vv, symmetric_values=True)
    b = np.random.default_rng(0).standard_normal((pipe_8k.n_fem, 16))
    benchmark.pedantic(f.solve, args=(b,), rounds=3, iterations=1)
    f.free()


# -- solve-sweep rows (script entry, and one pytest row set) ------------------

def _min_of_k(fn, k):
    """(min, q1, q3) of ``k`` timed calls, in milliseconds."""
    fn()
    times = []
    for _ in range(k):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    q1, q3 = np.percentile(times, [25, 75])
    return min(times), float(q1), float(q3)


def _stream_bandwidth(nbytes=1 << 27):
    """Bytes per second of a read-only BLAS pass (``ddot``) over 128 MiB —
    what a sweep that only streamed its factors once could reach."""
    a = np.ones(nbytes // 8)
    return a.nbytes / (_min_of_k(lambda: np.dot(a, a), 5)[0] * 1e-3)


def sweep_rows(n_pipe, n_aircraft, k=7, seed=0):
    """The solve-sweep layer rows; see the module docstring."""
    from repro.fembem import generate_aircraft_case, generate_pipe_case

    rng = np.random.default_rng(seed)
    bandwidth = _stream_bandwidth()
    rows = []

    def add(name, solve, n, complex_rhs, factor_bytes, widths, visits=None):
        for m in widths:
            b = rng.standard_normal((n, m))
            if complex_rhs:
                b = b + 1j * rng.standard_normal((n, m))
            best, q1, q3 = _min_of_k(lambda: solve(b), k)
            one = visits is not None and m == 1
            rows.append({
                "row": name, "n": n, "columns": m, "k": k,
                "min_ms": best, "q1_ms": q1, "q3_ms": q3,
                "factor_mb": factor_bytes / 2**20,
                "streamed_gb_per_s": 2 * factor_bytes / (best * 1e-3) / 1e9,
                "bandwidth_floor_ms": 2 * factor_bytes / bandwidth * 1e3,
                "front_visits": visits if one else None,
                "us_per_visit": best * 1e3 / visits if one else None,
            })

    def mf_row(name, case, symmetric):
        solver = SparseSolver()
        mf = solver.factorize(solver.analyse(case.a_vv, case.coords_v),
                              case.a_vv, symmetric_values=symmetric)
        # each front with pivots: once forward, once backward
        visits = 2 * sum(1 for f in mf.symbolic.fronts if f.n_own)
        add(name, mf.solve, case.n_fem, not symmetric, mf.factor_bytes,
            (1, 2, 64, 256), visits)
        mf.free()

    pipe = generate_pipe_case(n_pipe, seed=seed)
    mf_row("mf.solve ldlt-real", pipe, True)
    tree = build_cluster_tree(pipe.coords_s, leaf_size=64)
    hf = HLDLTFactorization(build_hodlr(pipe.a_ss_op, tree, tol=1e-3))
    add("hldlt.solve real", hf.solve, pipe.n_bem, False, hf.nbytes(), (1, 64))
    air = generate_aircraft_case(n_aircraft, bem_fraction=0.25, seed=seed)
    mf_row("mf.solve lu-complex", air, False)
    return {"stream_bandwidth_gb_per_s": bandwidth / 1e9, "rows": rows}


def render_sweep_rows(result):
    lines = [f"stream bandwidth {result['stream_bandwidth_gb_per_s']:.1f} GB/s",
             f"{'row':<22}{'n':>7}{'cols':>6}{'min ms':>9}{'q1-q3 ms':>16}"
             f"{'factor MiB':>12}{'GB/s':>8}{'floor ms':>10}"
             f"{'visits':>8}{'us/visit':>10}"]
    for r in result["rows"]:
        visits = ("" if r["front_visits"] is None else
                  f"{r['front_visits']:>8}{r['us_per_visit']:>10.2f}")
        lines.append(
            f"{r['row']:<22}{r['n']:>7}{r['columns']:>6}{r['min_ms']:>9.2f}"
            f"{r['q1_ms']:>8.2f}-{r['q3_ms']:<7.2f}{r['factor_mb']:>12.1f}"
            f"{r['streamed_gb_per_s']:>8.2f}{r['bandwidth_floor_ms']:>10.2f}"
            f"{visits}")
    return "\n".join(lines)


# -- numeric-phase rows -------------------------------------------------------

class _Clock:
    """Wall time of wrapped callables by name, and their last result."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.result = {}

    def wrap(self, name, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                self.result[name] = fn(*args, **kwargs)
                return self.result[name]
            finally:
                self.seconds[name] += time.perf_counter() - start
        return timed


def _replay_front_loop(sym, plan, dtype):
    """Seconds of (assemble, extend-add) of one factorization, replayed:
    the same frames, scatter segments and child → parent adds, on ones."""
    pos, vals, start = plan
    buf = np.empty(sym.peak_front_size() ** 2, dtype=dtype)
    assemble = extend_add = 0.0
    for i, f in enumerate(sym.fronts):
        nf = f.front_size
        t0 = time.perf_counter()
        flat = buf[:nf * nf]
        flat.fill(0)
        flat[pos[start[i]:start[i + 1]]] = vals[start[i]:start[i + 1]]
        assemble += time.perf_counter() - t0
        for ci in f.child_indices:
            at = sym.fronts[ci].in_parent
            if at is None:
                continue
            upd = np.ones((len(at), len(at)), dtype=dtype)
            t0 = time.perf_counter()
            flat[(at * nf)[:, None] + at] += upd
            extend_add += time.perf_counter() - t0
    return assemble, extend_add


def _numeric_row(name, a, sym, symmetric, blr, k, keep_factors=True):
    import repro.sparse.multifrontal as mfmod

    cls = mfmod.MultifrontalFactorization
    runs = []
    for _ in range(k + 1):          # the first run is the warm-up
        clock = _Clock()
        with mock.patch.multiple(
                cls, _entry_plan=clock.wrap("plan", cls._entry_plan),
                _front=clock.wrap("front", cls._front),
                _eliminate_lu=clock.wrap("eliminate", cls._eliminate_lu),
                _eliminate_ldlt=clock.wrap("eliminate", cls._eliminate_ldlt),
        ), mock.patch.object(
                mfmod, "compress_panel",
                clock.wrap("compress", mfmod.compress_panel)):
            start = time.perf_counter()
            mf = cls(a, sym, symmetric, blr=blr, keep_factors=keep_factors)
            total = time.perf_counter() - start
        stats = mf.statistics()
        mf.free()
        runs.append((total, clock))
    runs = runs[1:]
    total, clock = min(runs, key=lambda r: r[0])
    q1, q3 = np.percentile([r[0] for r in runs], [25, 75])
    replays = [_replay_front_loop(sym, clock.result["plan"], mf.dtype)
               for _ in range(3)]
    assemble = min(r[0] for r in replays)
    extend_add = min(r[1] for r in replays)
    sec = clock.seconds
    parts = {
        "plan_ms": sec["plan"], "assemble_ms": assemble,
        "extend_add_ms": extend_add,
        "eliminate_ms": sec["eliminate"] - sec["compress"],
        "compress_ms": sec["compress"],
        "other_ms": sec["front"] - sec["eliminate"] - assemble - extend_add,
    }
    return {"row": name, "n": sym.n_full, "fronts": len(sym.fronts),
            "peak_front": sym.peak_front_size(), "k": k,
            "min_ms": total * 1e3, "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3,
            **{key: val * 1e3 for key, val in parts.items()},
            "tested_panels": stats["blr_tested_panels"],
            "compressed_panels": stats["blr_compressed_panels"]}


def _spectrum_panel(rng, m, n, decay):
    """An ``m × n`` panel with singular values ``decay ** arange``."""
    k = min(m, n)
    u = np.linalg.qr(rng.standard_normal((m, k)))[0]
    v = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return (u * decay ** np.arange(k)) @ v.T


def numeric_rows(n_pipe, n_aircraft, k=5, seed=0):
    """The numeric-phase layer rows; see the module docstring."""
    from repro.core.multi_factorization import _build_w_block
    from repro.fembem import generate_aircraft_case, generate_pipe_case
    from repro.hmatrix.rk import RkMatrix
    from repro.sparse.blr import compress_panel

    blr = SolverConfig(epsilon=1e-3).blr_config()
    solver = SparseSolver(blr=blr)
    rows = []

    def add(name, mf, a, symmetric, keep_factors=True):
        sym = mf.symbolic
        mf.free()
        rows.append(_numeric_row(name, a.tocsr(), sym, symmetric, blr, k,
                                 keep_factors))

    pipe = generate_pipe_case(n_pipe, seed=seed)
    analysis = solver.analyse(pipe.a_vv, pipe.coords_v)
    add("factorize ldlt-real",
        solver.factorize(analysis, pipe.a_vv, symmetric_values=True),
        pipe.a_vv, True)
    half = np.arange(pipe.n_bem // 2)
    w, schur_vars = _build_w_block(pipe.a_vv.tocsr(), pipe.a_sv.tocsr(),
                                   half, half, pipe.a_vv.dtype)
    for call, keep in (("factorize_schur", True),
                       ("schur_complement", False)):
        add(f"{call} lu W k={len(half)}",
            solver.factorize_schur(analysis, w, schur_vars,
                                   symmetric_values=False), w, False, keep)
    air = generate_aircraft_case(n_aircraft, bem_fraction=0.25, seed=seed)
    add("factorize lu-complex",
        solver.factorize(solver.analyse(air.a_vv, air.coords_v), air.a_vv,
                         symmetric_values=False), air.a_vv, False)

    rng = np.random.default_rng(seed)
    panels = []
    for m, n in ((144, 960), (960, 144)):
        for verdict, decay in (("kept", 0.8), ("rejected", 0.94)):
            panel = _spectrum_panel(rng, m, n, decay)
            out = compress_panel(panel, blr)
            assert isinstance(out, RkMatrix) == (verdict == "kept")
            best, q1, q3 = _min_of_k(lambda: compress_panel(panel, blr), 3 * k)
            panels.append({
                "row": f"compress_panel {m}x{n} {verdict}", "k": 3 * k,
                "min_ms": best, "q1_ms": q1, "q3_ms": q3,
                "rank": out.rank if verdict == "kept" else None})
    return {"numeric_rows": rows, "compress_rows": panels}


def render_numeric_rows(result):
    parts = ("plan", "assemble", "extend_add", "eliminate", "compress",
             "other")
    lines = [f"{'row':<32}{'n':>7}{'fronts':>7}{'min ms':>9}{'q1-q3 ms':>16}"
             + "".join(f"{p:>11}" for p in parts) + f"{'kept/tested':>13}"]
    for r in result["numeric_rows"]:
        lines.append(
            f"{r['row']:<32}{r['n']:>7}{r['fronts']:>7}{r['min_ms']:>9.1f}"
            f"{r['q1_ms']:>8.1f}-{r['q3_ms']:<7.1f}"
            + "".join(f"{r[p + '_ms']:>11.1f}" for p in parts)
            + f"{r['compressed_panels']:>7}/{r['tested_panels']:<5}")
    lines.append(f"{'row':<32}{'min ms':>9}{'q1-q3 ms':>16}{'rank':>6}")
    for r in result["compress_rows"]:
        lines.append(
            f"{r['row']:<32}{r['min_ms']:>9.2f}{r['q1_ms']:>8.2f}-"
            f"{r['q3_ms']:<7.2f}{r['rank'] if r['rank'] else '-':>6}")
    return "\n".join(lines)


# -- ℋ-assembly rows ----------------------------------------------------------

def hmatrix_rows(n_pipe, k=5, seed=0, tol=SolverConfig().epsilon):
    """The ℋ-assembly layer rows; see the module docstring."""
    from repro.fembem import generate_pipe_case
    from repro.fembem.bem import KernelMatrix
    from repro.hmatrix.rk import RkMatrix, svd_truncate

    pipe = generate_pipe_case(n_pipe, seed=seed)
    tree = build_cluster_tree(pipe.coords_s, leaf_size=64)
    leaves = sum(leaf.size ** 2 for leaf in tree.leaves())
    offdiag = pipe.n_bem ** 2 - leaves
    rows = []
    for name, symmetric in (("both sides", False), ("lower only", True)):
        def build():
            return build_hodlr(pipe.a_ss_op, tree, tol=tol,
                               symmetric=symmetric)
        best, q1, q3 = _min_of_k(build, k)
        sizes = []
        block = KernelMatrix.block

        def counted(self, rows_, cols_):
            out = block(self, rows_, cols_)
            sizes.append(out.size)
            return out

        with mock.patch.object(KernelMatrix, "block", counted):
            hm = build()
        rows.append({
            "row": f"build_hodlr {name}", "n": pipe.n_bem, "k": k,
            "min_ms": best, "q1_ms": q1, "q3_ms": q3,
            "block_calls": len(sizes), "max_rank": hm.max_rank(),
            "store_mb": hm.nbytes() / 2**20,
            "evaluated_over_offdiag": (sum(sizes) - leaves) / offdiag})
    piece = _spectrum_panel(np.random.default_rng(seed), 960, 217, 0.65)
    for name, compress in (
            ("gram", lambda: RkMatrix.from_dense(piece, tol)),
            ("svd", lambda: RkMatrix(*svd_truncate(piece, tol)))):
        best, q1, q3 = _min_of_k(compress, 3 * k)
        rows.append({
            "row": f"from_dense 960x217 {name}", "k": 3 * k,
            "min_ms": best, "q1_ms": q1, "q3_ms": q3,
            "rank": compress().rank})
    return {"hmatrix_rows": rows}


def render_hmatrix_rows(result):
    lines = [f"{'row':<28}{'min ms':>9}{'q1-q3 ms':>16}{'calls':>7}"
             f"{'eval/offdiag':>14}{'rank':>6}{'MiB':>8}"]
    for r in result["hmatrix_rows"]:
        line = (f"{r['row']:<28}{r['min_ms']:>9.2f}{r['q1_ms']:>8.2f}-"
                f"{r['q3_ms']:<7.2f}")
        if "block_calls" in r:
            line += (f"{r['block_calls']:>7}"
                     f"{r['evaluated_over_offdiag']:>14.3f}"
                     f"{r['max_rank']:>6}{r['store_mb']:>8.2f}")
        else:
            line += f"{'-':>7}{'-':>14}{r['rank']:>6}{'-':>8}"
        lines.append(line)
    return "\n".join(lines)


# -- dense-factorization rows -------------------------------------------------

def dense_rows(k=3, seed=0, n_lu=2_252, n_ldlt=1_950):
    """The layer under ``dense.factorize_s``: the SPIDO factorization of
    ``S``, copying against in place; see the module docstring."""
    from scipy.linalg import lu_factor

    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_lu, n_lu)) + 1j * rng.standard_normal((n_lu, n_lu))
    a_lu = g + 0.05 * n_lu * np.eye(n_lu)
    g = rng.standard_normal((n_ldlt, n_ldlt))
    a_ldlt = g + g.T + 0.1 * n_ldlt * np.eye(n_ldlt)
    del g
    rows = []
    for name, a, flops, calls in (
            ("lu complex", a_lu, 4 * (2 / 3) * n_lu**3, (
                ("copy", lambda s: lu_factor(s, check_finite=False)),
                ("in place", lu_factor_inplace))),
            ("ldlt real", a_ldlt, n_ldlt**3 / 3, (
                ("copy", blocked_ldlt),
                ("in place", lambda s: blocked_ldlt(s, overwrite=True))))):
        s = np.empty_like(a)
        for variant, call in calls:
            times = []
            for _ in range(k):
                s[...] = a            # a fresh S for every call, untimed
                start = time.perf_counter()
                call(s)
                times.append(time.perf_counter() - start)
            q1, q3 = np.percentile(times, [25, 75])
            rows.append({"row": f"{name} {variant}", "n": len(a), "k": k,
                         "min_s": min(times), "q1_s": float(q1),
                         "q3_s": float(q3),
                         "gflops": flops / min(times) / 1e9})
    return {"dense_rows": rows}


def render_dense_rows(result):
    lines = [f"{'row':<22}{'n':>7}{'min s':>9}{'q1-q3 s':>16}{'GFlop/s':>9}"]
    for r in result["dense_rows"]:
        lines.append(
            f"{r['row']:<22}{r['n']:>7}{r['min_s']:>9.3f}{r['q1_s']:>8.3f}-"
            f"{r['q3_s']:<7.3f}{r['gflops']:>9.1f}")
    return "\n".join(lines)


# -- analysis and triangular-kernel rows --------------------------------------

def analysis_rows(n_pipe, n_aircraft, k=7, seed=0):
    """The analysis layer rows; see the module docstring."""
    from repro.core.multi_factorization import _build_w_block
    from repro.fembem import generate_aircraft_case, generate_pipe_case
    from repro.sparse.symbolic import (
        extend_symbolic_with_border,
        symbolic_analysis,
    )

    rows = []
    for name, case in (
            ("pipe", generate_pipe_case(n_pipe, seed=seed)),
            ("aircraft", generate_aircraft_case(n_aircraft, bem_fraction=0.25,
                                                seed=seed))):
        a = case.a_vv.tocsr()
        solver = SparseSolver()
        tree = solver.build_tree(a, case.coords_v)
        interior = symbolic_analysis(a, tree)
        half = np.arange(case.n_bem // 2)
        cols = half if case.symmetric else half + len(half)
        w, schur_vars = _build_w_block(a, case.a_sv.tocsr(), half, cols,
                                       a.dtype)
        ids = np.arange(a.shape[0])
        for phase, fn in (
                ("nested dissection", lambda: solver.build_tree(
                    a, case.coords_v)),
                ("symbolic", lambda: symbolic_analysis(a, tree)),
                (f"graft W k={len(half)}", lambda: extend_symbolic_with_border(
                    interior, w, schur_vars, ids))):
            best, q1, q3 = _min_of_k(fn, k)
            rows.append({"row": f"{phase} {name}", "n": a.shape[0],
                         "fronts": tree.n_nodes, "k": k, "min_ms": best,
                         "q1_ms": q1, "q3_ms": q3})
    return {"analysis_rows": rows}


def triangular_rows(k=200, seed=0):
    """``RowBlockKernel.solve`` (``trsm`` / ``trsv``) against ``multiply``
    (``trmm`` / ``trmv``) with the inverse, at front shapes; see the
    module docstring."""
    from repro.dense import RowBlockKernel

    rng = np.random.default_rng(seed)
    rows = []
    for p, m, dtype in ((60, 256, np.float64), (157, 256, np.float64),
                        (60, 1, np.float64), (60, 1, np.complex128)):
        l = np.tril(rng.standard_normal((p, p)), -1) / p + np.eye(p)
        l = l.astype(dtype)           # C-ordered, as an LDLᵀ front stores it
        inv = np.ascontiguousarray(np.linalg.inv(l))
        x0 = rng.standard_normal((p, m)).astype(dtype)
        kern = RowBlockKernel(dtype)
        times = {}
        for name, call, a in (("solve", kern.solve, l),
                              ("multiply", kern.multiply, inv)):
            x, best = x0.copy(), []
            for _ in range(k):
                x[...] = x0
                start = time.perf_counter()
                call(a, x, lower=True, unit=True)
                best.append(time.perf_counter() - start)
            times[name] = min(best) * 1e6
        rows.append({"row": f"p={p} cols={m} {np.dtype(dtype).name}",
                     "k": k, "solve_us": times["solve"],
                     "multiply_us": times["multiply"]})
    return {"triangular_rows": rows}


# -- solve-width rows ---------------------------------------------------------

def solve_width_rows(n_pipe, k=7, seed=0,
                     widths=(1, 2, 3, 4, 8, 16, 32, 64)):
    """Per-column cost of a coupled solve by width; see the module
    docstring."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.core import CoupledFactorization
    from repro.fembem import generate_pipe_case

    pipe = generate_pipe_case(n_pipe, seed=seed)
    fact = CoupledFactorization(
        pipe, "multi_solve",
        SolverConfig(dense_backend="hmat", epsilon=1e-3, n_workers=1))
    rng = np.random.default_rng(seed)

    def load(m):
        shape = (lambda n: (n,)) if m == 1 else (lambda n: (n, m))
        return (rng.standard_normal(shape(pipe.n_fem)),
                rng.standard_normal(shape(pipe.n_bem)))

    rows = []

    def add(name, m, fn):
        best, q1, q3 = _min_of_k(fn, k)
        rows.append({"row": name, "columns": m, "k": k, "min_ms": best,
                     "q1_ms": q1, "q3_ms": q3, "ms_per_col": best / m})

    for m in widths:
        b = load(m)
        add(f"panel of {m}", m, lambda: fact.solve(*b))  # noqa: B023
    pair = [load(1), load(1)]
    add("2 singles back to back", 2,
        lambda: [fact.solve(*b) for b in pair])
    with ThreadPoolExecutor(max_workers=2) as pool:
        add("2 singles on 2 threads", 2,
            lambda: list(pool.map(lambda b: fact.solve(*b), pair)))
    fact.free()
    single = rows[-2]["ms_per_col"]
    wins = [r["columns"] for r in rows[:len(widths)]
            if r["columns"] > 1 and r["min_ms"] < r["columns"] * single]
    return {"n": pipe.n_total, "solve_width_rows": rows,
            "crossover_width": min(wins) if wins else None}


def render_solve_width_rows(result):
    lines = [f"coupled solve by width, pipe n={result['n']} hmat; "
             f"crossover width k* = {result['crossover_width']}",
             f"{'row':<26}{'cols':>6}{'min ms':>9}{'q1-q3 ms':>16}"
             f"{'ms/col':>9}"]
    for r in result["solve_width_rows"]:
        lines.append(
            f"{r['row']:<26}{r['columns']:>6}{r['min_ms']:>9.2f}"
            f"{r['q1_ms']:>8.2f}-{r['q3_ms']:<7.2f}{r['ms_per_col']:>9.2f}")
    return "\n".join(lines)


def render_analysis_rows(result):
    lines = [f"{'row':<32}{'n':>7}{'fronts':>7}{'min ms':>9}{'q1-q3 ms':>16}"]
    for r in result["analysis_rows"]:
        lines.append(
            f"{r['row']:<32}{r['n']:>7}{r['fronts']:>7}{r['min_ms']:>9.2f}"
            f"{r['q1_ms']:>8.2f}-{r['q3_ms']:<7.2f}")
    lines.append(f"{'kernel':<32}{'solve us':>10}{'multiply us':>13}"
                 f"{'ratio':>7}")
    for r in result["triangular_rows"]:
        lines.append(
            f"{r['row']:<32}{r['solve_us']:>10.2f}{r['multiply_us']:>13.2f}"
            f"{r['solve_us'] / r['multiply_us']:>7.2f}")
    return "\n".join(lines)


def test_solve_sweep_rows():
    from bench_utils import scaled, write_result

    result = sweep_rows(scaled(12_000), scaled(9_000), k=3)
    write_result("kernels_solve_sweeps", render_sweep_rows(result))
    assert len(result["rows"]) == 10
    assert all(r["min_ms"] > 0 for r in result["rows"])


def test_numeric_phase_rows():
    from bench_utils import scaled, write_result

    result = numeric_rows(scaled(12_000), scaled(9_000), k=2)
    write_result("kernels_numeric_phase", render_numeric_rows(result))
    assert len(result["numeric_rows"]) == 4
    assert len(result["compress_rows"]) == 4
    for r in result["numeric_rows"]:
        assert r["min_ms"] > 0
        assert r["compressed_panels"] <= r["tested_panels"]


def test_hmatrix_assembly_rows():
    from bench_utils import scaled, write_result

    result = hmatrix_rows(scaled(12_000), k=2)
    write_result("kernels_hmatrix_assembly", render_hmatrix_rows(result))
    both, lower, gram, svd = result["hmatrix_rows"]
    assert lower["block_calls"] < 0.6 * both["block_calls"]
    assert lower["evaluated_over_offdiag"] < both["evaluated_over_offdiag"] < 1
    assert lower["store_mb"] < 0.7 * both["store_mb"]
    assert gram["rank"] == svd["rank"] == 17


def test_analysis_rows():
    from bench_utils import scaled, write_result

    result = analysis_rows(scaled(12_000), scaled(9_000), k=3)
    result.update(triangular_rows(k=50))
    write_result("kernels_analysis", render_analysis_rows(result))
    assert len(result["analysis_rows"]) == 6
    assert len(result["triangular_rows"]) == 4


def test_solve_width_rows():
    from bench_utils import scaled, write_result

    result = solve_width_rows(scaled(8_000), k=3)
    write_result("kernels_solve_width", render_solve_width_rows(result))
    assert len(result["solve_width_rows"]) == 10
    assert all(r["min_ms"] > 0 for r in result["solve_width_rows"])


def test_dense_factorization_rows():
    from bench_utils import write_result

    result = dense_rows(k=2, n_lu=600, n_ldlt=500)
    write_result("kernels_dense_factorization", render_dense_rows(result))
    assert [r["row"] for r in result["dense_rows"]] == [
        "lu complex copy", "lu complex in place",
        "ldlt real copy", "ldlt real in place"]
    assert all(r["gflops"] > 0 for r in result["dense_rows"])


def main(argv=None):
    here = pathlib.Path(__file__).resolve().parent
    sys.path[:0] = [str(here), str(here / "harness")]
    from bench_utils import scaled
    from provenance import header

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--json", metavar="FILE",
                        help="also write the rows, with provenance, here")
    parser.add_argument("--repeat", type=int, default=7, metavar="K")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    result = sweep_rows(scaled(12_000), scaled(9_000), k=args.repeat,
                        seed=args.seed)
    print(render_sweep_rows(result))
    numeric = numeric_rows(scaled(12_000), scaled(9_000),
                           k=max(2, args.repeat - 2), seed=args.seed)
    print(render_numeric_rows(numeric))
    result.update(numeric)
    hmatrix = hmatrix_rows(scaled(12_000), k=max(2, args.repeat - 2),
                           seed=args.seed)
    print(render_hmatrix_rows(hmatrix))
    result.update(hmatrix)
    analysis = analysis_rows(scaled(12_000), scaled(9_000), k=args.repeat,
                             seed=args.seed)
    analysis.update(triangular_rows(seed=args.seed))
    print(render_analysis_rows(analysis))
    result.update(analysis)
    dense = dense_rows(k=max(2, args.repeat - 4), seed=args.seed)
    print(render_dense_rows(dense))
    result.update(dense)
    width = solve_width_rows(scaled(8_000), k=args.repeat, seed=args.seed)
    print(render_solve_width_rows(width))
    result.update(width)
    if args.json:
        payload = {"provenance": header(args.seed), **result}
        pathlib.Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"[written to {args.json}]")


if __name__ == "__main__":
    main()
