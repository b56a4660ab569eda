#!/usr/bin/env python
"""Tour of the implemented future-work extensions (paper §VII).

Two directions the paper names as future work, implemented here and
compared against the paper's own algorithms on one pipe system:

1. **Out-of-core dense Schur** — the uncompressed S lives in a
   disk-backed memory map; only two column panels are ever resident.
2. **Symmetric multi-factorization** — one triangle of W blocks, LDLᵀ on
   the diagonal, against the paper's ``n_b²`` LU blocks (the same
   matrices with the symmetry flag cleared): what the missing symmetric
   mode of the paper's solvers costs.

Run:  python examples/extensions_tour.py [N]
"""

import dataclasses
import sys
import time

from repro import SolverConfig, fmt_bytes, generate_pipe_case, solve_coupled


def run(problem, label, algorithm, config):
    t0 = time.perf_counter()
    sol = solve_coupled(problem, algorithm, config)
    elapsed = time.perf_counter() - t0
    s = sol.stats
    print(
        f"{label:<42} {elapsed:>6.2f}s  RAM {fmt_bytes(s.peak_bytes):>11}  "
        f"S {fmt_bytes(s.schur_bytes):>11}  err {sol.relative_error:.1e}"
    )
    return sol


def main() -> None:
    n_total = int(sys.argv[1]) if len(sys.argv) > 1 else 8_000
    problem = generate_pipe_case(n_total)
    print(
        f"Pipe system N = {n_total:,} "
        f"({problem.n_fem:,} FEM + {problem.n_bem:,} BEM unknowns)\n"
    )

    print("— multi-solve: where do the n_s² bytes of S go? —")
    run(problem, "paper Algorithm 1 (dense S, in core)", "multi_solve",
        SolverConfig(dense_backend="spido", n_c=128))
    run(problem, "paper Algorithm 2 (compressed S)", "multi_solve",
        SolverConfig(dense_backend="hmat", n_c=128, n_s_block=512))
    run(problem, "extension: out-of-core dense S", "multi_solve",
        SolverConfig(dense_backend="spido_ooc", n_c=128))

    # a symmetric system needs the blocks j <= i only (X_ji = X_ijᵀ) and
    # factors the diagonal ones LDLᵀ; clearing the symmetry flag gives the
    # paper's lane: n_b² blocks, LU (duplicated storage) everywhere
    print("\n— multi-factorization: the missing symmetric mode (n_b = 2) —")
    a = run(dataclasses.replace(problem, symmetric=False),
            "paper-faithful (n_b² unsymmetric W blocks)",
            "multi_factorization", SolverConfig(n_b=2))
    b = run(problem, "symmetric: one triangle, LDLᵀ diagonal",
            "multi_factorization", SolverConfig(n_b=2))
    print(
        f"\nSparse factorizations: {a.stats.n_sparse_factorizations} -> "
        f"{b.stats.n_sparse_factorizations}"
    )
    # n_b = 1 makes the single W block diagonal, so the whole factorization
    # runs in symmetric mode (with n_b >= 2 the off-diagonal blocks still
    # pay the duplicated storage and set the peak)
    a = run(dataclasses.replace(problem, symmetric=False),
            "paper-faithful, n_b = 1 (LU)",
            "multi_factorization", SolverConfig(n_b=1))
    b = run(problem, "symmetric, n_b = 1 (LDLᵀ)",
            "multi_factorization", SolverConfig(n_b=1))
    saved = a.stats.sparse_factor_bytes - b.stats.sparse_factor_bytes
    print(
        f"\nFactor storage saved by the symmetric mode: {fmt_bytes(saved)} "
        f"({100 * saved / a.stats.sparse_factor_bytes:.0f}% of the "
        "paper-faithful factors)"
    )


if __name__ == "__main__":
    main()
