"""Micro-benchmarks of the solver building blocks.

Not tied to a specific paper figure; tracks the performance of the
kernels every coupling algorithm is built from (blocked dense
factorizations, hierarchical matvec/factorization, ACA compression,
multifrontal factorize/solve).

Run as a script it measures the **solve sweeps**, the layer under
``sparse.solve_s`` / ``hmatrix.solve_s`` of the harness::

    python benchmarks/bench_kernels.py [--json BENCH_kernels.json]

Rows: ``mf.solve`` at 1 / 64 / 256 columns for LDLᵀ-real (pipe) and
LU-complex (aircraft) factors, and the H-LDLᵀ solve at 1 / 64 columns.
Each is min-of-k milliseconds with the q1–q3 spread, the GB/s of factor
bytes it streamed (a solve reads every factor twice, forward and backward)
and the floor ``2 × factor_bytes / bandwidth`` against a bandwidth measured
on the spot.  A sweep is bandwidth-bound only when the panel is narrow;
wide panels are bounded by BLAS-3 flops, and their GB/s says how much
reuse each streamed byte got.
"""

import argparse
import json
import pathlib
import sys
import time

import numpy as np
import pytest

from repro.dense import blocked_ldlt, blocked_lu
from repro.fembem.bem import make_surface_operator
from repro.fembem.mesh import box_surface_points
from repro.hmatrix import (
    HLDLTFactorization,
    HLUFactorization,
    aca_dense,
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


def test_blocked_lu_kernel(benchmark, dense_matrix):
    benchmark.pedantic(blocked_lu, args=(dense_matrix,),
                       kwargs={"block_size": 128}, rounds=3, iterations=1)


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
    rk = benchmark.pedantic(aca_dense, args=(g, 1e-6), rounds=3,
                            iterations=1)
    assert rk.rank < 60


def test_multifrontal_factorize(benchmark, pipe_8k):
    def factorize():
        f = SparseSolver().factorize(pipe_8k.a_vv, coords=pipe_8k.coords_v,
                                     symmetric_values=True)
        f.free()
    benchmark.pedantic(factorize, rounds=2, iterations=1)


def test_multifrontal_solve(benchmark, pipe_8k):
    f = SparseSolver().factorize(pipe_8k.a_vv, coords=pipe_8k.coords_v,
                                 symmetric_values=True)
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

    def add(name, solve, n, complex_rhs, factor_bytes, widths):
        for m in widths:
            b = rng.standard_normal((n, m))
            if complex_rhs:
                b = b + 1j * rng.standard_normal((n, m))
            best, q1, q3 = _min_of_k(lambda: solve(b), k)
            rows.append({
                "row": name, "n": n, "columns": m, "k": k,
                "min_ms": best, "q1_ms": q1, "q3_ms": q3,
                "factor_mb": factor_bytes / 2**20,
                "streamed_gb_per_s": 2 * factor_bytes / (best * 1e-3) / 1e9,
                "bandwidth_floor_ms": 2 * factor_bytes / bandwidth * 1e3,
            })

    pipe = generate_pipe_case(n_pipe, seed=seed)
    mf = SparseSolver().factorize(pipe.a_vv, coords=pipe.coords_v,
                                  symmetric_values=True)
    add("mf.solve ldlt-real", mf.solve, pipe.n_fem, False,
        mf.factor_bytes, (1, 64, 256))
    mf.free()
    tree = build_cluster_tree(pipe.coords_s, leaf_size=64)
    hf = HLDLTFactorization(build_hodlr(pipe.a_ss_op, tree, tol=1e-3))
    add("hldlt.solve real", hf.solve, pipe.n_bem, False, hf.nbytes(), (1, 64))
    air = generate_aircraft_case(n_aircraft, bem_fraction=0.25, seed=seed)
    mf = SparseSolver().factorize(air.a_vv, coords=air.coords_v,
                                  symmetric_values=False)
    add("mf.solve lu-complex", mf.solve, air.n_fem, True,
        mf.factor_bytes, (1, 64, 256))
    mf.free()
    return {"stream_bandwidth_gb_per_s": bandwidth / 1e9, "rows": rows}


def render_sweep_rows(result):
    lines = [f"stream bandwidth {result['stream_bandwidth_gb_per_s']:.1f} GB/s",
             f"{'row':<22}{'n':>7}{'cols':>6}{'min ms':>9}{'q1-q3 ms':>16}"
             f"{'factor MiB':>12}{'GB/s':>8}{'floor ms':>10}"]
    for r in result["rows"]:
        lines.append(
            f"{r['row']:<22}{r['n']:>7}{r['columns']:>6}{r['min_ms']:>9.2f}"
            f"{r['q1_ms']:>8.2f}-{r['q3_ms']:<7.2f}{r['factor_mb']:>12.1f}"
            f"{r['streamed_gb_per_s']:>8.2f}{r['bandwidth_floor_ms']:>10.2f}")
    return "\n".join(lines)


def test_solve_sweep_rows():
    from bench_utils import scaled, write_result

    result = sweep_rows(scaled(12_000), scaled(9_000), k=3)
    write_result("kernels_solve_sweeps", render_sweep_rows(result))
    assert len(result["rows"]) == 8
    assert all(r["min_ms"] > 0 for r in result["rows"])


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
    if args.json:
        payload = {"provenance": header(args.seed), **result}
        pathlib.Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"[written to {args.json}]")


if __name__ == "__main__":
    main()
