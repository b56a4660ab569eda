"""One command for every performance number of this repository.

    python benchmarks/harness/run.py [--workload W] [--seed S] [--trace]
                                     [--seconds T] [--repeat K] [--out F]
    python benchmarks/harness/run.py compare A.json B.json

Each workload runs in a fresh subprocess (child.py) with ``REPRO_*``
scrubbed and BLAS pinned to one thread.  Without ``--trace`` the
end-to-end metrics of ``BENCHMARK.json`` are measured; with it, one
traced unit of work per workload yields the per-layer metrics.  Exits
non-zero when any operation failed its correctness check.

With ``--workload`` the last line printed is the one-object JSON result
the benchmark contract asks for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from provenance import REPO_ROOT, THREAD_ENV

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170


def load_benchmark():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(dict.fromkeys(THREAD_ENV, "1"))
    return env


def run_child(workload, seed, seconds, trace, smoke):
    """One workload subprocess; returns its result document."""
    # det-ok: spawn timestamp so the child can count its own start-up
    spawned_at = repr(time.time())
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload,
            str(seed), str(seconds), str(int(trace)), str(int(smoke)),
            spawned_at]
    proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"harness: {workload} exceeded {CHILD_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        sys.exit(f"harness: {workload} subprocess exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def declared(bench, trace):
    return bench["per_layer" if trace else "end_to_end"]


def normalise(result, bench):
    """``{name: {value, unit, q1, q3, n}}`` for every metric the child
    emitted that ``BENCHMARK.json`` declares."""
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    out = {}
    for name, raw in result["metrics"].items():
        if name not in units:
            continue
        entry = raw if isinstance(raw, dict) else {
            "value": raw, "median": raw, "q1": raw, "q3": raw, "n": 1}
        out[name] = {**entry, "unit": units[name]}
    return out


def fill(metrics, bench, trace):
    """Make the mode's declared metric set complete: a layer that did not
    run on the workload reports 0; a missing end-to-end metric is an error."""
    for spec in declared(bench, trace):
        if spec["name"] in metrics:
            continue
        if not trace:
            sys.exit(f"harness: end-to-end metric {spec['name']} "
                     "was not measured")
        metrics[spec["name"]] = {"value": 0.0, "median": 0.0, "q1": 0.0,
                                 "q3": 0.0, "n": 0, "unit": spec["unit"]}
    return metrics


def print_table(workload, metrics, result, bench, trace):
    """The mode's metrics in declared order; an untraced run also shows
    the per-layer numbers it measures anyway."""
    print(f"\n== {workload}: attempted_ops={result['attempted_ops']} "
          f"failed_ops={result['failed_ops']}")
    shown = bench["per_layer"] if trace else (
        bench["end_to_end"] + bench["per_layer"])
    for name in (m["name"] for m in shown if m["name"] in metrics):
        m = metrics[name]
        spread = (f"  [median {m['median']:.6g}  q1 {m['q1']:.6g}  "
                  f"q3 {m['q3']:.6g}  n {m['n']}]" if m["n"] > 1 else "")
        print(f"{name:<34}{m['value']:>14.6g} {m['unit']}{spread}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")


def aggregate(runs):
    """Median, quartiles and count over the runs of ``--repeat``."""
    if len(runs) == 1:
        return runs[0]
    out = {}
    for name, first in runs[0].items():
        values = [run[name]["value"] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"value": median, "median": median, "q1": q1, "q3": q3,
                     "n": len(values), "unit": first["unit"]}
    return out


def measure(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        sys.exit(f"harness: unknown workload {args.workload!r}; "
                 f"one of {', '.join(names)}")
    if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
        sys.exit("harness: src/repro not found next to BENCHMARK.json")
    seconds = 0 if args.smoke else (
        bench["run_seconds"] if args.seconds is None else args.seconds)
    selected = [args.workload] if args.workload else names
    document = {"trace": args.trace, "repeat": args.repeat, "smoke": args.smoke,
                "seconds": seconds, "workloads": {}}
    attempted = failed = 0
    for workload in selected:
        runs = []
        for _ in range(args.repeat):
            result = run_child(workload, args.seed, seconds, args.trace,
                               args.smoke)
            attempted += result["attempted_ops"]
            failed += result["failed_ops"]
            runs.append(fill(normalise(result, bench), bench, args.trace))
        metrics = aggregate(runs)
        print_table(workload, metrics, result, bench, args.trace)
        document["provenance"] = result["provenance"]
        document["workloads"][workload] = {
            "attempted_ops": result["attempted_ops"],
            "failed_ops": result["failed_ops"],
            "metrics": metrics,
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
    if args.workload:
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {
                spec["name"]: {"value": metrics[spec["name"]]["value"],
                               "unit": spec["unit"]}
                for spec in declared(bench, args.trace)},
        }))
    else:
        print(f"\n{len(selected)} workloads: attempted_ops={attempted} "
              f"failed_ops={failed}")
    return 1 if failed else 0


def compare(args, bench):
    """Apply the bounds of ``BENCHMARK.json`` to two result documents."""
    with open(args.a) as fh:
        doc_a = json.load(fh)
    with open(args.b) as fh:
        doc_b = json.load(fh)
    counts = {"ok": 0, "regressed": 0, "unresolved": 0}
    print(f"{'workload':<20}{'metric':<18}{'A':>12}{'B':>12}"
          f"{'worse by':>10}{'bound':>8}  verdict")
    for workload, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"].get(workload)
        if entry_b is None:
            continue
        for spec in bench["end_to_end"]:
            a = entry_a["metrics"].get(spec["name"])
            b = entry_b["metrics"].get(spec["name"])
            if a is None or b is None:
                continue
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * (b["value"] - a["value"]) / a["value"]
            spread = max((m["q3"] - m["q1"]) / m["value"] for m in (a, b))
            if spread > spec["bound"]:
                verdict = f"unresolved (spread {spread:.1%})"
                counts["unresolved"] += 1
            elif worse > spec["bound"]:
                verdict = "regressed"
                counts["regressed"] += 1
            else:
                verdict = "ok"
                counts["ok"] += 1
            print(f"{workload:<20}{spec['name']:<18}{a['value']:>12.5g}"
                  f"{b['value']:>12.5g}{worse:>+10.1%}{spec['bound']:>8.1%}"
                  f"  {verdict}")
    print(", ".join(f"{v} {k}" for k, v in counts.items()))
    return 1 if counts["regressed"] else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command")
    cmp_parser = sub.add_parser("compare", help="apply the bounds to two "
                                "--out files: ok / regressed / unresolved")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced run: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="N=2000, one unit of work per workload")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the set K times; store median, q1, q3, n")
    parser.add_argument("--out", help="write the result document here")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    if args.command == "compare":
        return compare(args, bench)
    return measure(args, bench)


if __name__ == "__main__":
    sys.exit(main())
