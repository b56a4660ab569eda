"""Text renderers for the experiment rows.

Each renderer prints our measured rows next to the paper's reference
values (where the paper publishes them) so that the shape comparison —
who wins, by what factor, where the feasibility boundaries fall — can be
read off directly.  The same renderers feed the benchmark harness output
and EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.memory.tracker import fmt_bytes
from repro.runner.paper_reference import FIG10_MAX_UNKNOWNS


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str = ""
) -> str:
    """Plain-text table with right-aligned numeric columns."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append(["" if v is None else str(v) for v in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(
        h.ljust(w) for h, w in zip(cells[0], widths, strict=True)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(
            c.rjust(w) for c, w in zip(row, widths, strict=True)))
    return "\n".join(lines)


def _fmt_time(row: Dict) -> str:
    if not row.get("feasible", True):
        return "OOM"
    return f"{row['time']:.2f}s"


def _fmt_peak(row: Dict) -> str:
    if not row.get("feasible", True):
        return f">{fmt_bytes(row.get('oom_bytes', 0))}"
    return fmt_bytes(row["peak_bytes"])


def _fmt_err(row: Dict) -> str:
    if not row.get("feasible", True):
        return "-"
    return f"{row['relative_error']:.1e}"


def render_table1(rows: List[Dict]) -> str:
    """Table I analog: unknown splits, ours versus the paper's."""
    body = [
        (
            r["n_total"], r["n_bem"], r["n_fem"],
            f"{100 * r['bem_fraction']:.2f}%",
            f"{r['paper_n_total']:,}", f"{r['paper_n_bem']:,}",
            f"{100 * r['paper_bem_fraction']:.2f}%",
        )
        for r in rows
    ]
    return render_table(
        ["N", "n_BEM", "n_FEM", "BEM %", "paper N", "paper n_BEM", "paper BEM %"],
        body,
        title="Table I (scaled 1/250): counts of BEM and FEM unknowns",
    )


def render_fig10(rows: List[Dict]) -> str:
    """Figure 10 analog: best time per algorithm/coupling and size."""
    body = [
        (
            r["n_total"], r["algorithm"], r["coupling"],
            _fmt_time(r), _fmt_peak(r),
            r.get("n_c"), r.get("n_s_block"), r.get("n_b"),
        )
        for r in rows
    ]
    table = render_table(
        ["N", "algorithm", "coupling", "best time", "peak mem",
         "n_c", "n_S", "n_b"],
        body,
        title="Figure 10 (scaled): best computation times under the "
              "scaled memory limit",
    )
    # capacity summary: largest feasible N per algorithm/coupling
    caps: Dict[str, int] = {}
    for r in rows:
        if r.get("feasible"):
            key = f"{r['algorithm']} ({r['coupling']})"
            caps[key] = max(caps.get(key, 0), r["n_total"])
    lines = [table, "", "Largest processable system (ours, scaled | paper):"]
    paper_names = {
        "multi_solve (MUMPS/HMAT)": "multi_solve_compressed",
        "multi_solve (MUMPS/SPIDO)": "multi_solve",
        "multi_factorization (MUMPS/HMAT)": "multi_factorization_compressed",
        "multi_factorization (MUMPS/SPIDO)": "multi_factorization",
        "advanced (MUMPS/SPIDO)": "advanced",
        "baseline (MUMPS/SPIDO)": None,
    }
    for key in sorted(caps, key=caps.get, reverse=True):
        paper_key = paper_names.get(key)
        paper_n = FIG10_MAX_UNKNOWNS.get(paper_key) if paper_key else None
        paper_txt = f"{paper_n:,}" if paper_n else "n/a"
        lines.append(f"  {key:<38} {caps[key]:>8,}  | {paper_txt}")
    return "\n".join(lines)


def render_fig11(rows: List[Dict], epsilon: float = 1e-3) -> str:
    """Figure 11 analog: relative error of the best feasible runs."""
    body = [
        (r["n_total"], r["algorithm"], r["coupling"], _fmt_err(r),
         "yes" if r.get("feasible") and r["relative_error"] < epsilon else
         ("-" if not r.get("feasible") else "NO"))
        for r in rows
    ]
    return render_table(
        ["N", "algorithm", "coupling", "rel. error", f"< {epsilon:g}"],
        body,
        title="Figure 11 (scaled): relative error of the best runs "
              f"(paper: all below the threshold {epsilon:g})",
    )


def render_fig12(rows: List[Dict]) -> str:
    """Figure 12 analog: multi-solve performance/memory trade-off."""
    body = [
        (
            r["variant"], r.get("n_c"), r.get("n_s_block"),
            _fmt_time(r), _fmt_peak(r),
        )
        for r in rows
    ]
    return render_table(
        ["variant", "n_c", "n_S", "time", "peak mem"],
        body,
        title="Figure 12 (scaled): multi-solve trade-off "
              "(paper: n_c→256 improves time, then memory grows; "
              "small n_S pays recompression overhead)",
    )


def render_fig13(rows: List[Dict]) -> str:
    """Figure 13 analog: multi-factorization trade-off in n_b."""
    body = []
    for r in rows:
        u = r["unsymmetric"]
        body.append((
            r["variant"], r["n_b"],
            r.get("n_sparse_factorizations"), _fmt_time(r), _fmt_peak(r),
            u.get("n_sparse_factorizations"), _fmt_time(u), _fmt_peak(u),
        ))
    return render_table(
        ["variant", "n_b", "#factorizations", "time", "peak mem",
         "#fact. (unsym. view)", "time", "peak mem"],
        body,
        title="Figure 13 (scaled): multi-factorization trade-off "
              "(paper: more blocks = less memory, more refactorizations; "
              "its n_b² count is the view with the symmetry flag cleared)",
    )


def render_worker_breakdown(stats) -> str:
    """Per-worker phase times of a parallel run (one row per worker).

    ``stats`` is a :class:`repro.core.result.SolveStats` whose Schur
    assembly ran on the parallel runtime; serial runs render a one-line
    note instead.  The ``scheduler_wait`` column separates time blocked in
    admission control (waiting for memory budget) from useful work —
    the quantity to watch when a tight ``memory_limit`` serialises an
    otherwise parallel run.
    """
    worker_phases: Dict[str, Dict[str, float]] = stats.worker_phases
    if stats.n_workers <= 1 or not worker_phases:
        return f"{stats.algorithm}: serial run (n_workers=1), no breakdown"
    phase_names = sorted(
        {name for phases in worker_phases.values() for name in phases}
        - {"scheduler_wait"}
    )
    body = []
    for worker in sorted(worker_phases):
        phases = worker_phases[worker]
        body.append(
            [worker]
            + [f"{phases.get(name, 0.0):.3f}s" for name in phase_names]
            + [f"{phases.get('scheduler_wait', 0.0):.3f}s"]
        )
    return render_table(
        ["worker"] + phase_names + ["scheduler_wait"],
        body,
        title=(
            f"{stats.algorithm}: per-worker phase times "
            f"(n_workers={stats.n_workers}, total scheduler wait "
            f"{stats.scheduler_wait_seconds:.3f}s)"
        ),
    )


def render_table2(rows: List[Dict]) -> str:
    """Table II analog: the industrial configurations."""
    body = [
        (
            r["row"], r["algorithm"],
            r["sparse_compression"], r["dense_compression"],
            r.get("n_b") or "-", _fmt_time(r), _fmt_peak(r), _fmt_err(r),
        )
        for r in rows
    ]
    return render_table(
        ["row", "algorithm", "sparse cmp", "dense cmp", "n_b",
         "time", "peak mem", "rel err"],
        body,
        title="Table II (scaled industrial case): coupling/compression "
              "configurations under the scaled memory limit",
    )
