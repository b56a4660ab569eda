"""Entry point of one workload subprocess (spawned by run.py).

Refuses to run unless the environment is the one run.py prepares: no
``REPRO_*`` variable (they silently change solver defaults) and every BLAS
threading variable pinned to 1 before numpy is imported.
"""

from __future__ import annotations

import json
import os
import sys
import time

import provenance


def refuse_bad_environment():
    leaked = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if leaked:
        sys.exit(f"harness: refusing to run with {', '.join(leaked)} set: "
                 "REPRO_* variables change solver defaults")
    wrong = {k: os.environ.get(k) for k in provenance.THREAD_ENV
             if os.environ.get(k) != "1"}
    if wrong:
        sys.exit(f"harness: refusing to run, BLAS threads must be 1: {wrong}")


def main(argv):
    workload, seed, seconds, trace, smoke, spawned_at = argv
    refuse_bad_environment()
    # det-ok: interpreter start-up is part of setup_s, not of any result
    since_spawn = max(0.0, time.time() - float(spawned_at))
    t_process_start = time.perf_counter() - since_spawn
    sys.path.insert(0, os.path.join(provenance.REPO_ROOT, "src"))
    import workloads

    opts = workloads.Options(
        workload=workload, seed=int(seed), seconds=float(seconds),
        trace=trace == "1", smoke=smoke == "1",
        t_process_start=t_process_start,
    )
    metrics, ops = workloads.run(opts)
    print(json.dumps({
        "workload": workload,
        "metrics": metrics,
        "attempted_ops": ops.attempted,
        "failed_ops": min(ops.failed, ops.attempted),
        "failures": ops.failures[:20],
        "provenance": provenance.header(opts.seed),
    }, default=float), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
