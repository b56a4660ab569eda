"""Helpers shared by the benchmark modules."""

from __future__ import annotations

import os
import pathlib

#: CI exports ``REPRO_BENCH_SCALE=0.25`` (say) to run ``bench_kernels.py``
#: and the fixture cases on proportionally smaller problems.
BENCH_SCALE_ENV = "REPRO_BENCH_SCALE"


def scaled(n: int, floor: int = 1_000) -> int:
    """``n`` scaled by $REPRO_BENCH_SCALE, never below ``floor``."""
    scale = float(os.environ.get(BENCH_SCALE_ENV, "1.0"))
    return max(floor, int(n * scale))


RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_result(name: str, text: str) -> None:
    """Persist a rendered table under benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
