"""Command-line entry point for the experiment harness.

Regenerate any of the paper's tables and figures from the shell::

    python -m repro.runner table1
    python -m repro.runner fig10 --sizes 4000 8000 16000
    python -m repro.runner fig12 --n-total 8000
    python -m repro.runner fig13 --n-total 4000
    python -m repro.runner table2
    python -m repro.runner all

or run the persistent solver server (see ``docs/serving.md``)::

    python -m repro.runner serve --socket /tmp/repro.sock

``fig10`` accepts ``--full`` for the complete configuration grid and size
sweep (slow: the multi-factorization cells at large N take minutes).
``--n-workers K`` runs every solve on the K-wide parallel panel runtime
(equivalent to exporting ``REPRO_N_WORKERS=K``); results are bit-identical
to the serial runs.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core.config import DENSE_BACKENDS
from repro.runner import experiments, reporting
from repro.runner.workloads import PIPE_STUDY_SIZES
from repro.runtime import RUNTIME_BACKEND_ENV, RUNTIME_BACKENDS


def _cmd_table1(args) -> str:
    return reporting.render_table1(experiments.run_table1())


def _cmd_fig10(args) -> str:
    sizes = args.sizes or (
        PIPE_STUDY_SIZES if args.full else PIPE_STUDY_SIZES[:4]
    )
    rows = experiments.run_fig10_fig11(sizes=sizes)
    return "\n\n".join([
        reporting.render_fig10(rows), reporting.render_fig11(rows),
    ])


def _cmd_fig12(args) -> str:
    return reporting.render_fig12(experiments.run_fig12(n_total=args.n_total))


def _cmd_fig13(args) -> str:
    return reporting.render_fig13(experiments.run_fig13(n_total=args.n_total))


def _cmd_table2(args) -> str:
    return reporting.render_table2(
        experiments.run_table2(n_total=args.n_total)
    )


def _cmd_serve(args) -> str:
    import asyncio

    from repro.core.config import SolverConfig
    from repro.serving import run_server

    config = SolverConfig(
        dense_backend=args.dense_backend,
        serve_cache_entries=args.cache_entries,
        serve_cache_budget=args.cache_budget,
        serve_batching=args.batching,
        serve_batch_linger_ms=args.linger_ms,
        serve_max_batch_cols=args.max_batch_cols,
        serve_executor_threads=args.executor_threads,
    )
    from repro.serving.server import default_socket_path

    socket_path = args.socket or default_socket_path()
    print(f"serving on {socket_path} "
          f"(cache: {'on' if args.cache else 'off'}, "
          f"batching: {'on' if config.serve_batching else 'off'})",
          flush=True)
    asyncio.run(run_server(config, socket_path=socket_path,
                           cache_enabled=args.cache))
    return "server stopped"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Regenerate the paper's tables and figures "
                    "(scaled reproduction).",
    )
    parser.add_argument(
        "--n-workers", type=int, default=None, metavar="K",
        help="width of the parallel panel runtime for every solve "
             "(default: $REPRO_N_WORKERS or 1; results are bit-identical)",
    )
    parser.add_argument(
        "--runtime-backend", choices=RUNTIME_BACKENDS,
        default=None,
        help="execution backend of the parallel panel runtime "
             "(default: $REPRO_RUNTIME_BACKEND or 'thread'; 'process' runs "
             "panel kernels in worker processes with shared-memory results "
             "— bit-identical solutions, true multi-core scaling)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table I: unknown splits")

    p10 = sub.add_parser("fig10", help="Figs. 10-11: capacity & accuracy")
    p10.add_argument("--sizes", type=int, nargs="*", default=None)
    p10.add_argument("--full", action="store_true",
                     help="complete size sweep (slow)")

    p12 = sub.add_parser("fig12", help="Fig. 12: multi-solve trade-off")
    p12.add_argument("--n-total", type=int, default=None)

    p13 = sub.add_parser("fig13", help="Fig. 13: multi-fact trade-off")
    p13.add_argument("--n-total", type=int, default=None)

    p2 = sub.add_parser("table2", help="Table II: industrial case (slow)")
    p2.add_argument("--n-total", type=int, default=None)

    sub.add_parser("all", help="everything except the slow table2")

    ps = sub.add_parser(
        "serve",
        help="persistent solver server (factor cache + RHS batching)",
    )
    ps.add_argument("--socket", default=None,
                    help="unix socket path (default: per-PID under $TMPDIR)")
    ps.add_argument("--dense-backend", default="hmat",
                    choices=DENSE_BACKENDS,
                    help="Schur backend of served factorizations")
    ps.add_argument("--cache", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="cache numeric factorizations across requests")
    ps.add_argument("--cache-entries", type=int, default=4,
                    help="factor-cache entry cap (LRU beyond it)")
    ps.add_argument("--cache-budget", type=int, default=None, metavar="BYTES",
                    help="factor-cache byte budget (default: unlimited)")
    ps.add_argument("--batching", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="coalesce concurrent RHS into panels")
    ps.add_argument("--linger-ms", type=float, default=2.0,
                    help="batching linger window in milliseconds")
    ps.add_argument("--max-batch-cols", type=int, default=None,
                    help="panel column cap (default: DEFAULT_RHS_PANEL)")
    ps.add_argument("--executor-threads", type=int, default=2,
                    help="blocking-work executor threads")

    args = parser.parse_args(argv)
    # the experiment grid builds many SolverConfigs internally; the
    # environment defaults reach all of them without re-plumbing
    overrides = {}
    if args.n_workers is not None:
        if args.n_workers < 1:
            parser.error("--n-workers must be >= 1")
        from repro.runtime.scheduler import N_WORKERS_ENV

        overrides[N_WORKERS_ENV] = str(args.n_workers)
    if args.runtime_backend is not None:
        overrides[RUNTIME_BACKEND_ENV] = args.runtime_backend
    commands = {
        "table1": _cmd_table1,
        "fig10": _cmd_fig10,
        "fig12": _cmd_fig12,
        "fig13": _cmd_fig13,
        "table2": _cmd_table2,
        "serve": _cmd_serve,
    }
    saved = {name: os.environ.get(name) for name in overrides}
    os.environ.update(overrides)
    try:
        if args.command == "all":
            for name in ("table1", "fig10", "fig12", "fig13"):
                ns = argparse.Namespace(sizes=None, full=False, n_total=None)
                print(commands[name](ns))
                print()
        else:
            print(commands[args.command](args))
    finally:
        # an in-process caller keeps the defaults it had before the call
        for name, old in saved.items():
            if old is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = old
    return 0


if __name__ == "__main__":
    sys.exit(main())
