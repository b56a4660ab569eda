"""Command-line driver: ``python -m tools.analysis [paths...]``.

Runs every registered checker over all python files beneath the given
paths (default: ``src benchmarks``), prints findings sorted by location,
a per-checker findings/seconds table on stderr (unless ``--quiet``), and
exits 1 when any invariant is violated.  A file that cannot be read or
parsed becomes a regular ``E000`` finding with a location, never a
traceback.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence

from tools.analysis.base import Finding, iter_python_files, load_source


def _selected(only: Optional[Sequence[str]]):
    from tools.analysis import ALL_CHECKERS

    return [cls for cls in ALL_CHECKERS if only is None or cls.name in only]


def _run(paths: Iterable[str], only: Optional[Sequence[str]]):
    """Sorted findings, plus per-checker wall seconds."""
    checkers = _selected(only)
    findings: List[Finding] = []
    timings: Dict[str, float] = {}
    for path in iter_python_files(paths):
        mod, failure = load_source(path)
        if failure is not None:
            findings.append(failure)
            continue
        for cls in checkers:
            t0 = time.perf_counter()
            findings.extend(cls().check(mod))
            timings[cls.name] = (timings.get(cls.name, 0.0)
                                 + time.perf_counter() - t0)
    findings.sort(key=lambda f: (f.path, f.line, f.code, f.message))
    return findings, timings


def run_checkers(paths: Iterable[str],
                 only: Optional[Sequence[str]] = None) -> List[Finding]:
    """All findings from the selected checkers over ``paths``."""
    return _run(paths, only)[0]


def main(argv: Optional[Sequence[str]] = None) -> int:
    names = sorted(cls.name for cls in _selected(None))
    parser = argparse.ArgumentParser(
        prog="python -m tools.analysis",
        description="Repo-specific invariant checkers.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "benchmarks"],
        help="files or directories to check (default: src benchmarks)",
    )
    parser.add_argument(
        "--checker", action="append", choices=names, metavar="NAME",
        help=f"run only this checker (repeatable; one of: {', '.join(names)})",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the summary, print findings only",
    )
    args = parser.parse_args(argv)
    only = tuple(args.checker) if args.checker else None
    findings, timings = _run(args.paths, only)
    for f in findings:
        print(f.render())
    if not args.quiet:
        counts: Dict[str, int] = {}
        for f in findings:
            counts[f.checker] = counts.get(f.checker, 0) + 1
        print(f"\n{'checker':<22} {'findings':>8} {'seconds':>8}",
              file=sys.stderr)
        for name in only or names:
            print(f"{name:<22} {counts.get(name, 0):>8} "
                  f"{timings.get(name, 0.0):>8.2f}", file=sys.stderr)
        if counts.get("runner"):
            print(f"{'runner (E000)':<22} {counts['runner']:>8}",
                  file=sys.stderr)
        scope = " ".join(args.paths)
        if findings:
            print(f"\n{len(findings)} finding(s) in {scope}", file=sys.stderr)
        else:
            print(f"\nOK: {scope} clean", file=sys.stderr)
    return 1 if findings else 0
