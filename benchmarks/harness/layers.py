"""Per-layer metrics derived from the spans of one traced run.

``*_s`` metrics are self times from :func:`tracing.attribute` unless noted
inclusive; counts come from the same spans, so ratios are measured where
the work happens.  A value of 0 means the layer did not run on the
workload (``hmatrix.*`` on ``aircraft_ms_spido``, ``serving.*`` outside
``serve_closed2``).
"""

from __future__ import annotations

from tracing import ARGS, END, LAYER, NAME, PARENT, START, attribute, is_async

MIB = float(1 << 20)

#: Per-layer self-time metrics; together they partition the traced wall.
SELF_TIME_METRICS = (
    "fembem.kernel_s", "sparse.analysis_s", "sparse.numeric_s",
    "sparse.solve_s", "dense.factorize_s", "dense.solve_s",
    "hmatrix.build_s", "hmatrix.precompress_s", "hmatrix.commit_s",
    "hmatrix.flush_s", "hmatrix.factorize_s", "hmatrix.solve_s",
    "runtime.self_s", "serving.self_s", "core.self_s",
)

#: span name -> the self-time metric it is charged to (spans not listed
#: here are charged to their layer's ``<layer>.self_s``)
_SELF_METRIC_OF = {
    "fembem.kernel_block": "fembem.kernel_s",
    "fembem.kernel_to_dense": "fembem.kernel_s",
    "sparse.factorize": "sparse.analysis_s",
    "sparse.factorize_schur": "sparse.analysis_s",
    "sparse.build_tree": "sparse.analysis_s",
    "sparse.symbolic_analysis": "sparse.analysis_s",
    "sparse.extend_border": "sparse.analysis_s",
    "sparse.numeric": "sparse.numeric_s",
    "sparse.solve": "sparse.solve_s",
    "dense.factorize": "dense.factorize_s",
    "dense.solve": "dense.solve_s",
    "hmatrix.build_cluster_tree": "hmatrix.build_s",
    "hmatrix.build_hodlr": "hmatrix.build_s",
    "hmatrix.precompress_axpy": "hmatrix.precompress_s",
    "hmatrix.commit_axpy": "hmatrix.commit_s",
    "hmatrix.flush_accumulators": "hmatrix.flush_s",
    "hmatrix.factorize": "hmatrix.factorize_s",
    "hmatrix.solve": "hmatrix.solve_s",
    # the tracker factory is a microsecond call made by core
    "memory.make_tracker": "core.self_s",
}


def _outermost(spans, name):
    """Spans called ``name`` that are not nested in one of the same name
    (``MultifrontalFactorization.solve`` recurses over column panels)."""
    return [s for s in spans if s[NAME] == name
            and (s[PARENT] is None or s[PARENT][NAME] != name)]


def span_metrics(spans, roots):
    """Everything that can be read off the spans under ``roots``."""
    share = attribute(spans, roots)
    inside = [s for s in spans if id(s) in share]
    out = {name: 0.0 for name in SELF_TIME_METRICS}
    for span in inside:
        metric = _SELF_METRIC_OF.get(span[NAME], f"{span[LAYER]}.self_s")
        out[metric] += share[id(span)]
    wall = sum(root[END] - root[START] for root in roots)
    out["core.traced_wall_s"] = wall
    # what no wrapped lower layer covers stays with the driving layer
    out["core.trace_cover"] = 1.0 - out[f"{roots[-1][LAYER]}.self_s"] / wall

    def count(name):
        return sum(1 for s in inside if s[NAME] == name)

    out["fembem.kernel_calls"] = count("fembem.kernel_block")
    out["sparse.numeric_calls"] = count("sparse.numeric")
    solves = _outermost(inside, "sparse.solve")
    out["sparse.solve_calls"] = len(solves)
    out["sparse.solve_cols"] = sum(s[ARGS]["cols"] for s in solves)
    out["hmatrix.precompress_calls"] = count("hmatrix.precompress_axpy")

    flops = seconds = 0.0
    for span in inside:
        if span[NAME] == "dense.factorize":
            n = span[ARGS]["n"]
            flops += (2.0 / 3.0) * n**3 * (4.0 if span[ARGS]["complex"] else 1.0)
            seconds += span[END] - span[START]
    out["dense.factorize_gflops"] = flops / seconds / 1e9 if seconds else 0.0

    hfact = [s[ARGS] for s in inside if s[NAME] == "hmatrix.factorize"]
    for key in ("panel_compressions", "offdiag_updates", "recompressions"):
        out[f"hmatrix.{key}"] = sum(a[key] for a in hfact)
    out["hmatrix.max_rank"] = max((a["max_rank"] for a in hfact), default=0)
    out["hmatrix.factor_mb"] = max(
        (a["factor_bytes"] for a in hfact), default=0) / MIB

    runs = [s for s in inside if s[NAME] == "runtime.run"]
    out["runtime.run_s"] = sum(s[END] - s[START] for s in runs)
    out["runtime.tasks"] = sum(s[ARGS]["tasks"] for s in runs)
    run_ids = {id(s) for s in runs}
    out["runtime.worker_busy_s"] = sum(
        s[END] - s[START] for s in inside
        if s[PARENT] is not None and id(s[PARENT]) in run_ids
    )
    trackers = [s[ARGS]["tracker"] for s in inside
                if s[NAME] == "memory.make_tracker"]
    out["memory.n_allocations"] = sum(t.n_allocations for t in trackers)

    frames = [s for s in spans if is_async(s)
              and s[NAME] == "serving.write_message"
              and any(r[START] <= s[START] <= r[END] for r in roots)]
    out["serving.frame_s"] = sum(s[END] - s[START] for s in frames) + sum(
        s[END] - s[START] for s in inside if s[NAME] == "serving.pickle_loads"
    )
    return out


def stats_metrics(stats):
    """Per-layer numbers ``SolveStats`` already carries."""
    peaks = stats.peak_by_category
    analyses = stats.n_symbolic_analyses + stats.n_symbolic_reuses
    return {
        "sparse.symbolic_reuse_ratio": (
            stats.n_symbolic_reuses / analyses if analyses else 0.0),
        "sparse.factor_mb": stats.sparse_factor_bytes / MIB,
        "hmatrix.schur_ratio": (
            stats.schur_bytes / stats.schur_dense_bytes
            if stats.coupling == "MUMPS/HMAT" else 0.0),
        "memory.peak_schur_store_mb": peaks.get("schur_store", 0) / MIB,
        "memory.peak_sparse_factor_mb": peaks.get("sparse_factor", 0) / MIB,
        "memory.peak_front_arena_mb": peaks.get("front_arena", 0) / MIB,
        "memory.peak_solve_panel_mb": peaks.get("solve_panel", 0) / MIB,
        "runtime.scheduler_wait_s": stats.scheduler_wait_seconds,
        "runtime.peak_tracked_mb": stats.peak_bytes / MIB,
    }


def check_containment(spans):
    """Spans that stick out of their parent by more than 1 ms (worker
    spans may outlive the adopting ``run`` by a future's resolution)."""
    slack = 1e-3
    return [
        s[NAME] for s in spans
        if s[PARENT] is not None and not is_async(s)
        and (s[START] < s[PARENT][START] - slack
             or s[END] > s[PARENT][END] + slack)
    ]
