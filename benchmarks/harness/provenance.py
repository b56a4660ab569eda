"""The provenance header every harness output carries."""

from __future__ import annotations

import datetime
import os
import platform
import subprocess

HARNESS_VERSION = "1"
REPO_ROOT = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir))
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _git(*args):
    try:
        done = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas_vendor(numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def header(seed):
    import numpy
    import scipy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "harness_version": HARNESS_VERSION,
        # a checkout without .git (the driver's) has no SHA to record
        "git_sha": sha or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_vendor(numpy),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
        # det-ok: provenance timestamp, never feeds a computation
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }
