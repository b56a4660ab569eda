"""The six workloads; runs inside the workload subprocess (see child.py).

Every workload follows the same protocol: one untimed warm-up
``solve_coupled`` at N=2000 with the workload's algorithm and backend, a
timed *set-up pass* (generate the problem from ``--seed``, plus whatever
the workload keeps alive: a factorization, a server), the measured phase —
``round(--seconds / unit_s)`` units of work, each timed from outside — a
correctness check of every operation, and last the repeats of the set-up
pass, of which ``setup_s`` reports the fastest.

Every timing is taken per unit and the run reports its **least disturbed
unit** (:func:`summarize`): the work of a unit is identical every time, so
whatever a unit took beyond the fastest one was the shared host, not the
program.  The median and quartiles of the units are stored beside it.

With ``--trace 1`` the measured phase runs untraced reference units for
half the budget, then **one** unit with the layer entry points wrapped
(:mod:`tracing`); per-layer metrics come from that unit's spans.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import pickle
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import layers
import tracing
from repro import (
    CoupledFactorization,
    MemoryTracker,
    SolverConfig,
    generate_aircraft_case,
    generate_pipe_case,
    solve_coupled,
)
from repro.runtime import PanelTask, make_runtime
from repro.serving import ServingClient, SolverServer, system_fingerprint

MIB = layers.MIB
#: compression tolerance ε of every workload; also the accuracy gate
EPSILON = 1e-3
WARMUP_N = 2000
SMOKE_N = 2000
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass(frozen=True)
class Spec:
    kind: str        # "direct", "resolve" or "serve"
    case: str        # "pipe" or "aircraft"
    n_total: int
    algorithm: str
    config: dict
    #: seconds one unit of work took when the sizes were chosen; a run
    #: measures ``round(--seconds / unit_s)`` units, so every run of a
    #: workload does the same work whatever the speed of the code
    unit_s: float
    #: timed set-up passes; a pass that factorizes runs fewer times
    n_setup: int = 3
    #: unit of work of the stateful workloads
    n_single: int = 0
    n_panel: int = 0
    panel_cols: int = 64
    n_hits: int = 0
    n_clients: int = 0


_HMAT = {"dense_backend": "hmat", "epsilon": EPSILON}
SPECS = {
    "pipe_ms_hmat": Spec("direct", "pipe", 12000, "multi_solve",
                         {**_HMAT, "n_workers": 1}, unit_s=2.8),
    "pipe_mf_hmat": Spec("direct", "pipe", 12000, "multi_factorization",
                         {**_HMAT, "n_b": 2, "n_workers": 1}, unit_s=4.5),
    "pipe_mf_hmat_w2": Spec("direct", "pipe", 12000, "multi_factorization",
                            {**_HMAT, "n_b": 2, "n_workers": 2,
                             "runtime_backend": "thread"}, unit_s=3.6),
    "aircraft_ms_spido": Spec("direct", "aircraft", 9000, "multi_solve",
                              {"dense_backend": "spido", "epsilon": EPSILON,
                               "n_workers": 1}, unit_s=3.8),
    "pipe_resolve": Spec("resolve", "pipe", 12000, "multi_solve",
                         {**_HMAT, "n_workers": 1}, unit_s=1.3, n_setup=2,
                         n_single=40, n_panel=5),
    "serve_closed2": Spec("serve", "pipe", 8000, "multi_solve", dict(_HMAT),
                          unit_s=1.3, n_setup=2, n_single=50, n_hits=10,
                          n_clients=2),
}


@dataclass
class Ops:
    """Operations attempted and failed, with the reason of each failure."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok, what):
        """One operation attempted; failed unless ``ok``."""
        self.attempted += 1
        self.require(ok, what)

    def require(self, ok, what):
        """A condition on operations that were already counted."""
        if not ok:
            self.failed += 1
            self.failures.append(what)


@dataclass
class Options:
    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    #: ``perf_counter()`` reading of the moment the parent spawned this
    #: process: ``setup_s`` counts interpreter start-up and imports too
    t_process_start: float

    @property
    def spec(self):
        return SPECS[self.workload]

    @property
    def n_total(self):
        return SMOKE_N if self.smoke else self.spec.n_total

    @property
    def n_units(self):
        """Untraced units of work to measure; a traced run spends half of
        them on its reference and then traces one more."""
        units = max(1, round(self.seconds / self.spec.unit_s))
        return max(1, units // 2) if self.trace else units


# -- shared helpers -----------------------------------------------------------


def summarize(values, best=min):
    """One number per unit of work in, the least disturbed unit's out
    (``best=max`` for a rate), with the median, quartiles and count of
    the units stored beside it.

    Interference from the shared host only ever adds time, for stretches
    of a second up to minutes, so the fastest unit is the steadiest
    estimate of what the program costs; a median over the units moves
    with every stretch that covers half a run."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": best(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values), "units": values}


def p95(values):
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb():
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / MIB
    except (OSError, ValueError, IndexError):
        return peak_rss_mb()


def generate(spec, n_total, seed):
    if spec.case == "aircraft":
        return generate_aircraft_case(n_total, bem_fraction=0.25, seed=seed)
    return generate_pipe_case(n_total, seed=seed)


def warm_up(spec):
    """Fill caches and finish lazy imports before anything is timed."""
    solve_coupled(generate(spec, WARMUP_N, 0), spec.algorithm,
                  SolverConfig(**spec.config))


def n_extra_passes(opts):
    return 0 if opts.smoke else opts.spec.n_setup - 1


def timed_pass(make):
    t0 = perf_counter()
    product = make()
    return product, perf_counter() - t0


def extra_passes(opts, make, dispose):
    """Set-up is timed several times, but only the first pass feeds the
    measurement: the repeats run *after* it, each product disposed at
    once, so they leave no trace in ``peak_rss_mb`` — and a stretch of
    interference that covers the first pass has likely ended by then."""
    times = []
    for _ in range(n_extra_passes(opts)):
        product, seconds = timed_pass(make)
        dispose(product)
        times.append(seconds)
    return times


def timed(unit):
    """``(wall, result)`` of one unit of work.  Garbage of the previous
    unit (the solver's trees are cyclic) is collected first, outside the
    timed region: left to pile up it slows later units by 10 %."""
    gc.collect()
    t0 = perf_counter()
    result = unit()
    return perf_counter() - t0, result


def backward_error(problem, x_v, x_s, b_v, b_s):
    """``‖b − Ax‖/‖b‖`` per column against the *uncompressed* operator."""
    r_v = b_v - (problem.a_vv @ x_v + problem.a_sv.T @ x_s)
    r_s = b_s - (problem.a_sv @ x_v + problem.a_ss_op.matvec(x_s))

    def sq(a):
        return np.sum(np.abs(np.atleast_2d(a.T)) ** 2, axis=1)

    return float(np.max(np.sqrt((sq(r_v) + sq(r_s)) / (sq(b_v) + sq(b_s)))))


def close_to(x, ref):
    """``allclose`` at rtol 1e-8 with the absolute floor scaled to ``ref``."""
    return bool(np.allclose(x, ref, rtol=1e-8,
                            atol=1e-8 * float(np.max(np.abs(ref)))))


def random_rhs(problem, rng, n_cols):
    shape_v = (problem.n_fem, n_cols)
    shape_s = (problem.n_bem, n_cols)
    b_v, b_s = rng.standard_normal(shape_v), rng.standard_normal(shape_s)
    return b_v.astype(problem.dtype), b_s.astype(problem.dtype)


class Trace:
    """The traced regions of one run: wrappers are installed only while a
    region is open, and every region is a root span."""

    def __init__(self):
        self.recorder = tracing.Recorder()
        self.roots = []

    @contextlib.contextmanager
    def region(self, name, layer):
        patches = tracing.install(self.recorder)
        try:
            with self.recorder.root(name, layer) as root:
                yield
        finally:
            tracing.uninstall(patches)
        self.roots.append(root)

    def finish(self, opts, metrics, ops, reference_walls):
        """Write the Perfetto file and add the span-derived metrics; the
        last region is the traced unit of work."""
        spans = self.recorder.spans()
        os.makedirs(OUT_DIR, exist_ok=True)
        tracing.write_chrome_trace(
            spans, os.path.join(OUT_DIR, f"trace_{opts.workload}.json"),
            {"workload": opts.workload, "seed": opts.seed,
             "smoke": opts.smoke})
        metrics.update(layers.span_metrics(spans, self.roots))
        unit = self.roots[-1]
        metrics["core.trace_overhead_ratio"] = (
            (unit[tracing.END] - unit[tracing.START])
            / statistics.median(reference_walls))
        sticking_out = layers.check_containment(spans)
        ops.require(not sticking_out,
                    f"spans outside their parent: {sticking_out}")


def setup_region(trace):
    """The set-up pass of a traced run is traced too, so what a workload
    builds in set-up shows in its layers."""
    if trace is None:
        return contextlib.nullcontext()
    return trace.region("core.setup_pass", "core")


# -- direct solves ------------------------------------------------------------


def verify_solution(ops, problem, sol, label):
    err = backward_error(problem, sol.x_v, sol.x_s, problem.b_v, problem.b_s)
    ops.check(sol.relative_error <= EPSILON and err <= EPSILON,
              f"{label}: rel_error={sol.relative_error:.3g} "
              f"backward_error={err:.3g} (gate {EPSILON:g})")
    return err


def run_direct(opts, ops, head_s):
    spec = opts.spec
    config = SolverConfig(**spec.config)

    def make():
        return generate(spec, opts.n_total, opts.seed)

    problem, first_pass = timed_pass(make)
    rss_before = current_rss_mb()

    def unit():
        return solve_coupled(problem, spec.algorithm, config)

    reps = [timed(unit) for _ in range(opts.n_units)]
    walls = [wall for wall, _ in reps]
    rss = peak_rss_mb()
    for _, sol in reps:
        verify_solution(ops, problem, sol, "solve_coupled")
    stats = reps[0][1].stats
    # a high-water mark, like peak_rss_mb: identical on every unit at one
    # worker, the upper of two scheduling-dependent modes under two
    peak = max(sol.stats.peak_bytes for _, sol in reps) / MIB
    gen_times = [first_pass, *extra_passes(opts, make, lambda p: None)]
    metrics = {
        "setup_s": head_s + min(gen_times),
        "wall_s": summarize(walls),
        "peak_tracked_mb": peak,
        "peak_rss_mb": rss,
        # an operation is the whole unit here
        "solves_per_s": summarize([1.0 / w for w in walls], max),
        "solve_p50_ms": summarize([1e3 * w for w in walls]),
    }
    if not opts.trace:
        return metrics

    trace = Trace()
    gc.collect()
    with trace.region("core.solve_coupled", "core"):
        sol = unit()
    trace.finish(opts, metrics, ops, walls)
    metrics.update(layers.stats_metrics(sol.stats))
    metrics["fembem.generate_s"] = summarize(gen_times)
    metrics["core.rel_error"] = sol.relative_error
    metrics["core.backward_error"] = verify_solution(
        ops, problem, sol, "traced solve_coupled")
    metrics["core.phase_sum_over_wall"] = stats.total_time / walls[0]
    metrics["memory.tracked_over_rss"] = (
        stats.peak_bytes / MIB / max(rss - rss_before, 1.0))
    if config.effective_n_workers > 1:
        metrics.update(runtime_evidence(opts, ops, problem, walls))
    return metrics


def _noop_fn(timer, alloc):
    return None


def _noop_kernel(ctx, timer):
    return None


def noop_task_us(backend, n_workers, n_tasks=200):
    """Microseconds per empty ``PanelTask`` once the pool is up."""
    runtime = make_runtime(MemoryTracker(), n_workers, "noop",
                           backend=backend, worker_payload={})
    try:
        def batch():
            return [PanelTask(index=i, fn=_noop_fn, kernel=_noop_kernel)
                    for i in range(n_tasks)]

        runtime.run(batch())  # starts the pool
        t0 = perf_counter()
        runtime.run(batch())
        return 1e6 * (perf_counter() - t0) / n_tasks
    finally:
        runtime.close()


def runtime_evidence(opts, ops, problem, parallel_walls):
    """What the parallel workload needs beside its own wall: the same
    problem on one worker (speedup) and on the process backend."""
    spec = opts.spec
    n_workers = spec.config["n_workers"]
    out = {}
    serial = SolverConfig(**{**spec.config, "n_workers": 1})
    t0 = perf_counter()
    sol = solve_coupled(problem, spec.algorithm, serial)
    serial_wall = perf_counter() - t0
    verify_solution(ops, problem, sol, "serial reference")
    out["runtime.parallel_efficiency"] = serial_wall / (
        n_workers * statistics.median(parallel_walls))
    out["runtime.noop_task_us.thread"] = noop_task_us("thread", n_workers)
    try:
        out["runtime.noop_task_us.process"] = noop_task_us(
            "process", n_workers)
        process = SolverConfig(**{**spec.config, "runtime_backend": "process"})
        t0 = perf_counter()
        sol = solve_coupled(problem, spec.algorithm, process)
        out["runtime.process_wall_s"] = perf_counter() - t0
        verify_solution(ops, problem, sol, "process backend")
    except (OSError, PermissionError) as exc:
        # a sandbox without fork or /dev/shm: evidence only, not gated
        print(f"process backend unavailable here: {exc!r}", flush=True)
    return out


# -- factorize once, solve many -----------------------------------------------


def same_answer(answer, first):
    return all(np.array_equal(a, b) for a, b in zip(answer, first, strict=True))


def latency_metrics(units, tail):
    """Per-call latency, median and 95th percentile of each unit of work.
    ``units`` holds one list of per-call milliseconds per unit; ``tail``
    names the layer the tail latency is reported under."""
    return {
        "solve_p50_ms": summarize([statistics.median(ms) for ms in units]),
        f"{tail}.solve_p95_ms": summarize([p95(ms) for ms in units]),
    }


def run_resolve(opts, ops, head_s):
    spec = opts.spec
    config = SolverConfig(**spec.config)
    gen_times = []
    trace = Trace() if opts.trace else None
    rss_before = current_rss_mb()

    def make(trace=None):
        t0 = perf_counter()
        problem = generate(spec, opts.n_total, opts.seed)
        gen_times.append(perf_counter() - t0)
        with setup_region(trace):
            return problem, CoupledFactorization(
                problem, spec.algorithm, config)

    (problem, fact), first_pass = timed_pass(lambda: make(trace))

    n_single = 24 if opts.smoke else spec.n_single
    n_panel = 3 if opts.smoke else spec.n_panel
    width = spec.panel_cols
    rng = np.random.default_rng(opts.seed)
    single_v, single_s = random_rhs(problem, rng, n_single)
    # four distinct panels, revisited in turn
    pool_v, pool_s = random_rhs(problem, rng, 4 * width)
    first_single = [None] * n_single
    first_panel = [None] * 4
    single_ms, panel_s = [], []

    def timed_solve(b_v, b_s, firsts, k, times, scale):
        """One closed-loop call; repeats of a load case must reproduce
        the first answer bit for bit."""
        t0 = perf_counter()
        answer = fact.solve(b_v, b_s)
        times.append(scale * (perf_counter() - t0))
        if firsts[k] is None:
            firsts[k] = answer
        ops.check(same_answer(answer, firsts[k]),
                  "a repeated load case changed its answer")

    def sweep():
        single_ms.append([])
        for k in range(n_single):
            timed_solve(single_v[:, k], single_s[:, k],
                        first_single, k, single_ms[-1], 1e3)
        for k in range(n_panel):
            cols = slice((k % 4) * width, (k % 4 + 1) * width)
            timed_solve(pool_v[:, cols], pool_s[:, cols],
                        first_panel, k % 4, panel_s, 1.0)

    walls = [timed(sweep)[0] for _ in range(opts.n_units)]
    rss = peak_rss_mb()

    # every first answer against the exact operator, and the single-column
    # answers against one direct multi-column solve of the same load cases
    x_v = np.column_stack([a[0] for a in first_single])
    x_s = np.column_stack([a[1] for a in first_single])
    err = backward_error(problem, x_v, x_s, single_v, single_s)
    ref_v, ref_s = fact.solve(single_v, single_s)
    ops.require(close_to(x_v, ref_v) and close_to(x_s, ref_s),
                "single-column answers differ from the direct panel solve")
    for k, answer in enumerate(first_panel):
        if answer is not None:
            cols = slice(k * width, (k + 1) * width)
            err = max(err, backward_error(problem, answer[0], answer[1],
                                          pool_v[:, cols], pool_s[:, cols]))
    ops.require(err <= EPSILON, f"backward_error={err:.3g} (gate {EPSILON:g})")

    metrics = {
        "wall_s": summarize(walls),
        "peak_tracked_mb": fact.peak_bytes / MIB,
        "peak_rss_mb": rss,
        "solves_per_s": summarize(
            [1e3 * len(ms) / sum(ms) for ms in single_ms], max),
        **latency_metrics(single_ms, "core"),
        "core.panel_cols_per_s": width / min(panel_s),
    }
    if trace is not None:
        gc.collect()
        with trace.region("core.resolve_sweep", "core"):
            sweep()
        trace.finish(opts, metrics, ops, walls)
        stats = fact.stats
        metrics.update(layers.stats_metrics(stats))
        metrics["fembem.generate_s"] = summarize(gen_times)
        metrics["core.backward_error"] = err
        metrics["memory.tracked_over_rss"] = (
            stats.peak_bytes / MIB / max(rss - rss_before, 1.0))
    fact.free()
    pass_times = [first_pass, *extra_passes(
        opts, make, lambda product: product[1].free())]
    metrics["setup_s"] = head_s + min(pass_times)
    return metrics


# -- a whole served request ---------------------------------------------------


@dataclass
class Served:
    """One set-up pass of ``serve_closed2``: a started server, its
    connected clients and the factorization the first request built."""

    server: SolverServer
    clients: list
    problem: object
    key: str
    miss_s: float
    peak_bytes: int


async def serve_up(opts, ops, config, socket_path, trace=None):
    spec = opts.spec
    problem = generate(spec, opts.n_total, opts.seed)
    server = SolverServer(config, socket_path=socket_path)
    await server.start()
    clients = [await ServingClient.connect(socket_path)
               for _ in range(spec.n_clients)]
    t0 = perf_counter()
    with setup_region(trace):
        result = await clients[0].factorize(problem, spec.algorithm)
    miss_s = perf_counter() - t0
    ops.check(not result.hit, "first factorize of a fresh server was a hit")
    return Served(server, clients, problem, result.key, miss_s,
                  result.peak_bytes)


async def serve_down(served, ops):
    for client in served.clients:
        await client.close()
    try:
        # stop() clears the cache and asserts its tracker balance is zero
        await served.server.stop()
        balanced = True
    except AssertionError:
        balanced = False
    ops.check(balanced, "factor cache balance not zero at shutdown")


async def serve_main(opts, ops, head_s):
    spec = opts.spec
    config = SolverConfig(**spec.config)
    # unix socket paths are capped near 100 bytes and the checkout may sit
    # deep, so bind a short relative name from inside out/
    os.makedirs(OUT_DIR, exist_ok=True)
    os.chdir(OUT_DIR)
    socket_path = f"serve-{os.getpid()}.sock"
    trace = Trace() if opts.trace else None
    rss_before = current_rss_mb()
    t0 = perf_counter()
    served = await serve_up(opts, ops, config, socket_path, trace)
    pass_times = [perf_counter() - t0]

    problem, clients, key = served.problem, served.clients, served.key
    n_single = 24 if opts.smoke else spec.n_single
    n_hits = 4 if opts.smoke else spec.n_hits
    # each client cycles through its own pool of load cases; the references
    # are one direct panel solve on the factorization the server cached
    pool = 16
    rng = np.random.default_rng(opts.seed)
    b_v, b_s = random_rhs(problem, rng, pool * spec.n_clients)
    fact = served.server.cache.lookup(key)
    ref_v, ref_s = fact.solve(b_v, b_s)
    err = backward_error(problem, ref_v, ref_s, b_v, b_s)
    ops.require(err <= EPSILON, f"backward_error={err:.3g} (gate {EPSILON:g})")
    hit_ms, solve_ms = [], []

    async def caller(index, client):
        for k in range(n_single):
            col = index * pool + k % pool
            t0 = perf_counter()
            x_v, x_s = await client.solve(key, b_v[:, col], b_s[:, col])
            solve_ms[-1].append(1e3 * (perf_counter() - t0))
            ops.check(close_to(x_v, ref_v[:, col])
                      and close_to(x_s, ref_s[:, col]),
                      f"client {index} solve {k} differs from the reference")

    async def one_round():
        for _ in range(n_hits):
            t0 = perf_counter()
            result = await clients[0].factorize(problem, spec.algorithm)
            hit_ms.append(1e3 * (perf_counter() - t0))
            ops.check(result.hit and result.key == key,
                      "repeat factorize missed the cache")
        solve_ms.append([])
        t0 = perf_counter()
        await asyncio.gather(*(caller(i, c) for i, c in enumerate(clients)))
        return len(solve_ms[-1]) / (perf_counter() - t0)

    walls, rates = [], []
    for _ in range(opts.n_units):
        gc.collect()
        t0 = perf_counter()
        rates.append(await one_round())
        walls.append(perf_counter() - t0)
    rss = peak_rss_mb()
    metrics = {
        "wall_s": summarize(walls),
        "peak_tracked_mb": served.peak_bytes / MIB,
        "peak_rss_mb": rss,
        # the callers overlap, so the rate is solves over elapsed time
        "solves_per_s": summarize(rates, max),
        **latency_metrics(solve_ms, "serving"),
        "serving.factorize_hit_ms": statistics.median(hit_ms),
    }
    if trace is not None:
        before = await clients[0].stats()
        gc.collect()
        with trace.region("serving.closed_loop_round", "serving"):
            await one_round()
        trace.finish(opts, metrics, ops, walls)
        after = await clients[0].stats()
        ops.require(after["errors"] == 0,
                    f"server reported {after['errors']} errors")
        metrics.update(serving_metrics(
            before, after, [ms for unit in solve_ms for ms in unit]))
        metrics.update(frame_and_fingerprint(
            problem, spec, config,
            {"op": "solve", "request_id": 0, "key": key,
             "b_v": b_v[:, 0], "b_s": b_s[:, 0]},
            {"request_id": 0, "ok": True,
             "x_v": ref_v[:, 0], "x_s": ref_s[:, 0]}))
        stats = fact.stats
        metrics.update(layers.stats_metrics(stats))
        metrics["serving.factorize_miss_s"] = served.miss_s
        metrics["core.backward_error"] = err
        metrics["memory.tracked_over_rss"] = (
            stats.peak_bytes / MIB / max(rss - rss_before, 1.0))
    del fact
    await serve_down(served, ops)
    for _ in range(n_extra_passes(opts)):
        t0 = perf_counter()
        again = await serve_up(opts, ops, config, socket_path)
        pass_times.append(perf_counter() - t0)
        await serve_down(again, ops)
    metrics["setup_s"] = head_s + min(pass_times)
    return metrics


def serving_metrics(before, after, solve_ms):
    """The server's view, from two snapshots of its ``stats`` op: counts
    are those of the traced round, percentiles those of the whole run."""
    solve = after["solve"]
    batches = solve["batches"] - before["solve"]["batches"]
    requests = (solve["batched_requests"]
                - before["solve"]["batched_requests"])
    queue_p50 = 1e3 * solve["queue_wait"]["p50_seconds"]
    server_p50 = 1e3 * solve["latency"]["p50_seconds"]
    cache = after["cache"]
    return {
        "serving.batches": batches,
        "serving.batch_mean_requests": requests / batches,
        "serving.queue_wait_p50_ms": queue_p50,
        "serving.server_solve_p50_ms": server_p50,
        "serving.transport_ms": (
            statistics.median(solve_ms) - queue_p50 - server_p50),
        "serving.cache_hit_ratio": (
            cache["hits"] / (cache["hits"] + cache["misses"])),
        "serving.errors": after["errors"],
    }


def frame_and_fingerprint(problem, spec, config, request, response):
    """Computed frame size of one solve round trip (8-byte header plus
    pickle, both directions) and ``system_fingerprint`` timed directly."""
    frame_bytes = sum(
        8 + len(pickle.dumps(m, protocol=pickle.HIGHEST_PROTOCOL))
        for m in (request, response))
    times = []
    for _ in range(5):
        t0 = perf_counter()
        system_fingerprint(problem, spec.algorithm, config)
        times.append(1e3 * (perf_counter() - t0))
    return {"serving.frame_bytes_per_solve": frame_bytes,
            "serving.fingerprint_ms": statistics.median(times)}


def run_serve(opts, ops, head_s):
    return asyncio.run(serve_main(opts, ops, head_s))


RUNNERS = {"direct": run_direct, "resolve": run_resolve, "serve": run_serve}


def run(opts):
    """Run one workload; returns ``(metrics, ops)``."""
    ops = Ops()
    warm_up(opts.spec)
    # the head of setup_s: interpreter start, imports and the warm-up
    head_s = perf_counter() - opts.t_process_start
    metrics = RUNNERS[opts.spec.kind](opts, ops, head_s)
    return metrics, ops
