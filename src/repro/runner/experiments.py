"""Experiment drivers — one per table/figure of the paper's evaluation.

Every driver returns a list of plain-dict rows (JSON-friendly) so that the
benchmark harness, the examples and the tests can all consume them;
:mod:`repro.runner.reporting` renders them next to the paper's reference
values.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence

from repro.core.api import solve_coupled
from repro.core.config import SolverConfig
from repro.fembem.aircraft import generate_aircraft_case
from repro.fembem.pipe import generate_pipe_case, pipe_grid_dims
from repro.runner import workloads
from repro.runner.workloads import (
    INDUSTRIAL_SIZE,
    PIPE_STUDY_SIZES,
    TABLE1_SIZES,
    fig10_config_grid,
    fig12_nc_sweep,
    fig12_ns_sweep,
    fig13_nb_sweep,
    industrial_memory_limit,
    pipe_memory_limit,
)
from repro.runner.paper_reference import TABLE1, TABLE2
from repro.utils.errors import MemoryLimitExceeded


def run_table1(sizes: Optional[Sequence[int]] = None) -> List[Dict]:
    """Table I analog: BEM/FEM unknown split of the scaled pipe systems."""
    sizes = list(sizes) if sizes is not None else TABLE1_SIZES
    rows = []
    for n_total, paper_row in zip(sizes, TABLE1, strict=False):
        _, n_fem, n_bem = pipe_grid_dims(n_total)
        paper_n, paper_bem, paper_fem = paper_row
        rows.append(
            {
                "n_total": n_total,
                "n_bem": n_bem,
                "n_fem": n_fem,
                "bem_fraction": n_bem / n_total,
                "paper_n_total": paper_n,
                "paper_n_bem": paper_bem,
                "paper_n_fem": paper_fem,
                "paper_bem_fraction": paper_bem / paper_n,
            }
        )
    return rows


def _attempt(problem, algorithm: str, config: SolverConfig) -> Dict:
    """Run one configuration; OOM (logical) becomes an infeasible row."""
    t0 = time.perf_counter()
    try:
        sol = solve_coupled(problem, algorithm, config)
    except MemoryLimitExceeded as exc:
        return {
            "feasible": False,
            "oom_bytes": exc.requested + exc.in_use,
            "wall_time": time.perf_counter() - t0,
        }
    return {
        "feasible": True,
        "wall_time": time.perf_counter() - t0,
        "time": sol.stats.total_time,
        "peak_bytes": sol.stats.peak_bytes,
        "schur_bytes": sol.stats.schur_bytes,
        "relative_error": sol.relative_error,
        "n_sparse_factorizations": sol.stats.n_sparse_factorizations,
        "phases": sol.stats.phases,
    }


def run_fig10_fig11(
    sizes: Optional[Sequence[int]] = None,
    memory_limit: Optional[int] = None,
    grid: Optional[Dict] = None,
    include_reference_couplings: bool = True,
) -> List[Dict]:
    """Figure 10 + 11 analog: best time and error per algorithm and size.

    For every ``(algorithm, coupling)`` and problem size, runs the
    configuration grid under the scaled memory limit and keeps the
    fastest feasible configuration — an infeasible cell reproduces the
    paper's "could not be processed" boundary.
    """
    sizes = list(sizes) if sizes is not None else PIPE_STUDY_SIZES
    memory_limit = memory_limit or pipe_memory_limit()
    grid = grid if grid is not None else fig10_config_grid()
    rows: List[Dict] = []
    for n_total in sizes:
        problem = generate_pipe_case(n_total)
        for (algorithm, _coupling), configs in grid.items():
            if not include_reference_couplings and algorithm in (
                "baseline", "advanced"
            ):
                continue
            best: Optional[Dict] = None
            for config in configs:
                config = config.with_(memory_limit=memory_limit)
                result = _attempt(problem, algorithm, config)
                result.update(
                    n_total=n_total,
                    algorithm=algorithm,
                    coupling=config.coupling_name,
                    n_c=config.n_c,
                    n_s_block=config.n_s_block,
                    n_b=config.n_b,
                )
                if result["feasible"] and (
                    best is None or not best["feasible"]
                    or result["time"] < best["time"]
                ):
                    best = result
                elif best is None:
                    best = result
            rows.append(best)
        del problem
    return rows


def run_fig12(
    n_total: Optional[int] = None,
    memory_limit: Optional[int] = None,
    nc_values: Optional[Sequence[int]] = None,
    ns_values: Optional[Sequence[int]] = None,
) -> List[Dict]:
    """Figure 12 analog: multi-solve time/memory trade-off in n_c and n_S.

    Three families, as in the paper: baseline multi-solve (MUMPS/SPIDO)
    sweeping ``n_c``; compressed multi-solve (MUMPS/HMAT) first with
    ``n_c = n_S`` sweeping both, then with ``n_c`` pinned sweeping ``n_S``.

    In the compressed lanes ``S`` is recompressed once per ``n_S``
    columns (Algorithm 2): every ``n_c`` panel is pre-compressed where it
    was solved and appended to ``S``'s accumulators, which are flushed
    each time ``n_S`` columns have been committed.
    """
    n_total = n_total or workloads.scaled_n(2_000_000)
    nc_values = list(nc_values) if nc_values is not None else fig12_nc_sweep()
    ns_values = list(ns_values) if ns_values is not None else fig12_ns_sweep()
    problem = generate_pipe_case(n_total)
    rows: List[Dict] = []

    def record(variant, algorithm, config, **params):
        config = config.with_(memory_limit=memory_limit)
        result = _attempt(problem, algorithm, config)
        result.update(n_total=n_total, variant=variant, **params)
        rows.append(result)

    pinned_nc = max(nc_values)
    for n_c in nc_values:
        record(
            "multi_solve (MUMPS/SPIDO)", "multi_solve",
            SolverConfig(dense_backend="spido", n_c=n_c), n_c=n_c,
        )
        record(
            "compressed multi_solve, n_c = n_S", "multi_solve",
            SolverConfig(dense_backend="hmat", n_c=n_c, n_s_block=n_c),
            n_c=n_c, n_s_block=n_c,
        )
    for n_s in ns_values:
        if n_s <= pinned_nc:
            continue
        record(
            f"compressed multi_solve, n_c = {pinned_nc}", "multi_solve",
            SolverConfig(dense_backend="hmat", n_c=pinned_nc, n_s_block=n_s),
            n_c=pinned_nc, n_s_block=n_s,
        )
    return rows


def run_fig13(
    n_total: Optional[int] = None,
    memory_limit: Optional[int] = None,
    nb_values: Optional[Sequence[int]] = None,
) -> List[Dict]:
    """Figure 13 analog: multi-factorization trade-off in n_b.

    Every configuration runs twice: on the symmetric pipe
    (``n_b(n_b+1)/2`` blocks, LDLᵀ on the diagonal) and — under the row's
    ``"unsymmetric"`` key — on a view of the same matrices with the
    symmetry flag cleared, which is the count the paper studies: ``n_b²``
    blocks, LU everywhere, both sides of ``S`` stored.
    """
    n_total = n_total or workloads.scaled_n(1_000_000)
    nb_values = list(nb_values) if nb_values is not None else fig13_nb_sweep()
    problem = generate_pipe_case(n_total)
    unsymmetric = dataclasses.replace(problem, symmetric=False)
    rows: List[Dict] = []
    for n_b in nb_values:
        for backend, variant in (
            ("spido", "multi_factorization (MUMPS/SPIDO)"),
            ("hmat", "compressed multi_factorization (MUMPS/HMAT)"),
        ):
            config = SolverConfig(
                dense_backend=backend, n_b=n_b, memory_limit=memory_limit
            )
            result = _attempt(problem, "multi_factorization", config)
            result.update(
                n_total=n_total, variant=variant, n_b=n_b,
                unsymmetric=_attempt(
                    unsymmetric, "multi_factorization", config),
            )
            rows.append(result)
    return rows


def run_table2(
    n_total: Optional[int] = None,
    memory_limit: Optional[int] = None,
    epsilon: float = 1e-4,
    bem_fraction: Optional[float] = None,
    precision: str = "single",
) -> List[Dict]:
    """Table II analog: the industrial aircraft case, nine configurations.

    Reproduces the paper's progression: everything uncompressed (only
    multi-solve fits in memory), BLR in the sparse solver
    (multi-factorization now completes), compression in both solvers
    (large further memory gains), then larger Schur blocks trading the
    spared memory back for speed.

    The scaled Schur-block counts are ``INDUSTRIAL_NB_BASE`` for the base
    multi-factorization rows and ``INDUSTRIAL_NB_LARGER`` for rows 8-9
    (the paper uses 8/4/2; see :mod:`repro.runner.workloads`).
    """
    n_total = n_total or INDUSTRIAL_SIZE
    memory_limit = memory_limit or industrial_memory_limit()
    if bem_fraction is None:
        bem_fraction = workloads.INDUSTRIAL_BEM_FRACTION
    # the paper's industrial runs "use simple precision accuracy" (§VI)
    problem = generate_aircraft_case(
        n_total, bem_fraction=bem_fraction, precision=precision
    )
    nb_base = workloads.INDUSTRIAL_NB_BASE
    nb_larger = list(workloads.INDUSTRIAL_NB_LARGER)
    # map the paper's row structure onto the scaled block counts
    scaled_nb = {8: nb_base, 4: nb_larger[0], 2: nb_larger[1]}
    rows: List[Dict] = []
    for idx, (sparse_c, dense_c, algorithm, paper_nb) in enumerate(TABLE2):
        n_b = scaled_nb.get(paper_nb, nb_base) if paper_nb else nb_base
        config = SolverConfig(
            dense_backend="hmat" if dense_c == "on" else "spido",
            sparse_compression=sparse_c == "on",
            epsilon=epsilon,
            n_b=n_b,
            n_c=64,
            n_s_block=512,
            memory_limit=memory_limit,
        )
        result = _attempt(problem, algorithm, config)
        result.update(
            row=idx + 1,
            n_total=n_total,
            algorithm=algorithm,
            sparse_compression=sparse_c,
            dense_compression=dense_c,
            n_b=n_b if algorithm == "multi_factorization" else None,
            paper_n_b=paper_nb,
        )
        rows.append(result)
    return rows
