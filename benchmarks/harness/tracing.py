"""Outside-in span tracing of the library's layer entry points.

Nothing under ``src/`` is instrumented: :func:`install` replaces the
public entry points of each layer (class methods, and module-level
functions in every ``repro.*`` namespace that imported them) with timing
wrappers, and :func:`uninstall` puts the originals back.

A span is the list ``[name, layer, start, end, parent, thread, args]``
(``parent`` is another span or ``None``).  Spans live on thread-local
stacks while open and in per-thread lists once closed; the root span of a
thread that has none open is parented to :attr:`Recorder.adopt` — the
enclosing ``runtime.run`` span for runtime workers, the workload's root
span otherwise.

:func:`attribute` splits wall time among spans: every instant belongs
in equal shares to the *leaf* spans active at it (spans with no active
child on any thread), so self times add up to the root's duration by
construction — serial runs reduce to the usual "duration minus children".
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import types
from time import perf_counter

NAME, LAYER, START, END, PARENT, THREAD, ARGS = range(7)


class Recorder:
    """In-memory span store shared by every wrapper of one traced run."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_spans = []  # guarded-by: _lock
        #: span that parentless spans of other threads attach to
        self.adopt = None

    def state(self):
        """This thread's ``(stack, closed spans, ident)`` record."""
        st = getattr(self._local, "st", None)
        if st is None:
            st = types.SimpleNamespace(
                stack=[], spans=[], ident=threading.get_ident()
            )
            self._local.st = st
            with self._lock:
                self._thread_spans.append(st.spans)
        return st

    def open(self, name, layer, args=None):
        st = self.state()
        parent = st.stack[-1] if st.stack else self.adopt
        span = [name, layer, 0.0, 0.0, parent, st.ident, args]
        st.stack.append(span)
        span[START] = perf_counter()
        return span

    def close(self, span):
        span[END] = perf_counter()
        st = self.state()
        st.stack.pop()
        st.spans.append(span)

    @contextlib.contextmanager
    def root(self, name, layer):
        """A root span that also adopts the spans of other threads."""
        span = self.open(name, layer)
        previous, self.adopt = self.adopt, span
        try:
            yield span
        finally:
            self.adopt = previous
            self.close(span)

    def spans(self):
        """Every closed span, ordered by start time."""
        with self._lock:
            merged = [s for spans in self._thread_spans for s in spans]
        merged.sort(key=lambda s: s[START])
        return merged


# -- wrappers -------------------------------------------------------------------


def _sync_wrapper(recorder, fn, name, layer, before=None, after=None,
                  adopts=False):
    """Timing wrapper; ``before(args, kwargs)`` seeds the span's args and
    ``after(span, result, args)`` may add to them once the call returned."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(
            name, layer, before(args, kwargs) if before else None
        )
        if adopts:
            previous, recorder.adopt = recorder.adopt, span
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(span, result, args)
            return result
        finally:
            if adopts:
                recorder.adopt = previous
            recorder.close(span)

    return wrapper


def _async_wrapper(recorder, fn, name, layer):
    """Coroutines interleave on one thread, so their spans never go on the
    stack: they are recorded flat, flagged ``async`` and left out of the
    wall-time attribution (most of a ``read_message`` is idle waiting)."""

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        st = recorder.state()
        start = perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            st.spans.append([name, layer, start, perf_counter(),
                             recorder.adopt, st.ident, {"async": True}])

    return wrapper


def _n_cols(array):
    shape = getattr(array, "shape", ())
    return int(shape[1]) if len(shape) > 1 else 1


def _solve_args(args, kwargs):
    b = args[1] if len(args) > 1 else kwargs.get("b")
    return {"cols": _n_cols(b)}


def _tasks_args(args, kwargs):
    tasks = args[1] if len(args) > 1 else kwargs.get("tasks")
    return {"tasks": len(tasks) if hasattr(tasks, "__len__") else 0}


def _dense_factorize_args(args, kwargs):
    a = args[1] if len(args) > 1 else kwargs.get("a")
    return {"n": int(a.shape[0]), "complex": a.dtype.kind == "c"}


def _hfactor_after(span, result, args):
    """The H-matrix is final when its factorization starts: read the
    compressed-AXPY counters and the ranks off it here."""
    fact, hm = args[0], args[1]
    span[ARGS] = {
        "panel_compressions": hm.n_panel_compressions,
        "offdiag_updates": hm.n_offdiag_updates,
        "recompressions": hm.n_offdiag_recompressions,
        "max_rank": hm.max_rank(),
        "factor_bytes": fact.nbytes(),
    }


def _tracker_after(span, result, args):
    span[ARGS] = {"tracker": result}


#: (module, class, method, layer, span name, wrapper options)
METHOD_TARGETS = [
    ("repro.sparse.solver", "SparseSolver", "factorize",
     "sparse", "sparse.factorize", {}),
    ("repro.sparse.solver", "SparseSolver", "factorize_schur",
     "sparse", "sparse.factorize_schur", {}),
    ("repro.sparse.solver", "SparseSolver", "build_tree",
     "sparse", "sparse.build_tree", {}),
    ("repro.sparse.multifrontal", "MultifrontalFactorization", "__init__",
     "sparse", "sparse.numeric", {}),
    ("repro.sparse.multifrontal", "MultifrontalFactorization", "solve",
     "sparse", "sparse.solve", {"before": _solve_args}),
    ("repro.hmatrix.hmatrix", "HMatrix", "precompress_axpy",
     "hmatrix", "hmatrix.precompress_axpy", {}),
    ("repro.hmatrix.hmatrix", "HMatrix", "commit_axpy",
     "hmatrix", "hmatrix.commit_axpy", {}),
    ("repro.hmatrix.hmatrix", "HMatrix", "flush_accumulators",
     "hmatrix", "hmatrix.flush_accumulators", {}),
    ("repro.hmatrix.factorization", "HLUFactorization", "__init__",
     "hmatrix", "hmatrix.factorize", {"after": _hfactor_after}),
    ("repro.hmatrix.factorization", "HLUFactorization", "solve",
     "hmatrix", "hmatrix.solve", {}),
    ("repro.hmatrix.ldlt_factorization", "HLDLTFactorization", "__init__",
     "hmatrix", "hmatrix.factorize", {"after": _hfactor_after}),
    ("repro.hmatrix.ldlt_factorization", "HLDLTFactorization", "solve",
     "hmatrix", "hmatrix.solve", {}),
    ("repro.dense.solver", "DenseSolver", "factorize",
     "dense", "dense.factorize", {"before": _dense_factorize_args}),
    ("repro.dense.solver", "DenseFactorization", "solve",
     "dense", "dense.solve", {}),
    ("repro.fembem.bem", "KernelMatrix", "block",
     "fembem", "fembem.kernel_block", {}),
    ("repro.fembem.bem", "KernelMatrix", "to_dense",
     "fembem", "fembem.kernel_to_dense", {}),
    ("repro.runtime.scheduler", "ParallelRuntime", "run",
     "runtime", "runtime.run", {"before": _tasks_args, "adopts": True}),
    ("repro.runtime.process_backend", "ProcessRuntime", "run",
     "runtime", "runtime.run", {"before": _tasks_args, "adopts": True}),
    ("repro.core.factorized", "CoupledFactorization", "__init__",
     "core", "core.factorization_init", {}),
    ("repro.core.factorized", "CoupledFactorization", "solve",
     "core", "core.factorization_solve", {}),
    ("repro.core.config", "SolverConfig", "make_tracker",
     "memory", "memory.make_tracker", {"after": _tracker_after}),
    ("repro.serving.batcher", "RhsBatcher", "submit",
     "serving", "serving.batcher_submit", {}),
    ("repro.serving.factor_cache", "FactorCache", "get_or_build",
     "serving", "serving.cache_get_or_build", {}),
]

#: (defining module, function, layer, span name, is coroutine)
FUNCTION_TARGETS = [
    ("repro.sparse.symbolic", "symbolic_analysis",
     "sparse", "sparse.symbolic_analysis", False),
    ("repro.sparse.symbolic", "extend_symbolic_with_border",
     "sparse", "sparse.extend_border", False),
    ("repro.hmatrix.cluster", "build_cluster_tree",
     "hmatrix", "hmatrix.build_cluster_tree", False),
    ("repro.hmatrix.hmatrix", "build_hodlr",
     "hmatrix", "hmatrix.build_hodlr", False),
    ("repro.serving.factor_cache", "system_fingerprint",
     "serving", "serving.fingerprint", False),
    ("repro.serving.protocol", "read_message",
     "serving", "serving.read_message", True),
    ("repro.serving.protocol", "write_message",
     "serving", "serving.write_message", True),
]


def _repro_namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def install(recorder):
    """Wrap every target; returns the patch list :func:`uninstall` undoes."""
    patches = []

    def patch(owner, attr, wrapped):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    for mod_name, cls_name, attr, layer, name, options in METHOD_TARGETS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        patch(cls, attr, _sync_wrapper(
            recorder, cls.__dict__[attr], name, layer, **options
        ))
    for mod_name, attr, layer, name, is_async in FUNCTION_TARGETS:
        original = getattr(importlib.import_module(mod_name), attr)
        make = _async_wrapper if is_async else _sync_wrapper
        wrapped = make(recorder, original, name, layer)
        # ``from x import f`` copies the reference: patch every repro
        # namespace that holds it, not only the defining module
        for module in _repro_namespaces():
            if module.__dict__.get(attr) is original:
                patch(module, attr, wrapped)
    # the framing work inside read_message (unpickling) is separated from
    # the idle wait for bytes by timing pickle as the protocol module sees it
    protocol = importlib.import_module("repro.serving.protocol")
    pickle = protocol.pickle
    patch(protocol, "pickle", types.SimpleNamespace(
        dumps=_sync_wrapper(recorder, pickle.dumps,
                            "serving.pickle_dumps", "serving"),
        loads=_sync_wrapper(recorder, pickle.loads,
                            "serving.pickle_loads", "serving"),
        HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
    ))
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def patch_points():
    """Current value of every attribute :func:`install` may replace, so a
    caller can check that :func:`uninstall` restored each one."""
    points = {}
    for mod_name, cls_name, attr, *_ in METHOD_TARGETS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        points[f"{mod_name}.{cls_name}.{attr}"] = cls.__dict__[attr]
    for mod_name, attr, *_ in FUNCTION_TARGETS:
        importlib.import_module(mod_name)
        for module in _repro_namespaces():
            if attr in module.__dict__:
                points[f"{module.__name__}:{attr}"] = module.__dict__[attr]
    protocol = importlib.import_module("repro.serving.protocol")
    points["repro.serving.protocol:pickle"] = protocol.pickle
    return points


# -- analysis -------------------------------------------------------------------


def is_async(span):
    return bool(span[ARGS]) and span[ARGS].get("async", False)


def attribute(spans, roots):
    """Wall-time share of every span under ``roots`` (see module docstring).

    Returns ``{id(span): seconds}``; the shares under one root sum to that
    root's duration.
    """
    share = {}
    for root in roots:
        share.update(_attribute_one(spans, root))
    return share


def _attribute_one(spans, root):
    inside = {id(root)}
    members = []
    for span in spans:  # start-ordered, so parents come first
        if span is root:
            members.append(span)
        elif (span[PARENT] is not None and id(span[PARENT]) in inside
                and not is_async(span)):
            inside.add(id(span))
            members.append(span)
    bounds = {}
    events = []
    for span in members:
        # clip to the parent: a worker span can outlive the run() that
        # adopted it by the few microseconds its future takes to resolve
        lo, hi = span[START], span[END]
        if span is not root:
            p_lo, p_hi = bounds[id(span[PARENT])]
            lo = max(lo, p_lo)
            hi = max(lo, min(hi, p_hi))
        bounds[id(span)] = (lo, hi)
        if hi > lo:
            # at equal times close before opening, so siblings do not overlap
            events.append((lo, 1, span))
            events.append((hi, 0, span))
    events.sort(key=lambda e: (e[0], e[1]))
    share = {id(s): 0.0 for s in members}
    active_children = {id(s): 0 for s in members}
    leaf_since = {}  # id(span) -> value of the integral when it became a leaf
    integral = 0.0   # ∫ dt / (number of leaves)
    last = events[0][0] if events else 0.0

    def set_leaf(span, on):
        if on:
            leaf_since[id(span)] = integral
        else:
            share[id(span)] += integral - leaf_since.pop(id(span))

    for when, opening, span in events:
        if leaf_since:
            integral += (when - last) / len(leaf_since)
        last = when
        parent = span[PARENT] if span is not root else None
        if opening:
            set_leaf(span, True)
            if parent is not None:
                if active_children[id(parent)] == 0 and id(parent) in leaf_since:
                    set_leaf(parent, False)
                active_children[id(parent)] += 1
        else:
            if id(span) in leaf_since:
                set_leaf(span, False)
            if parent is not None:
                active_children[id(parent)] -= 1
                if (active_children[id(parent)] == 0
                        and bounds[id(parent)][1] > when):
                    set_leaf(parent, True)
    return share


def write_chrome_trace(spans, path, metadata):
    """Chrome / Perfetto ``traceEvents`` JSON; args carry span and parent
    ids so containment can be checked from the file alone."""
    origin = min((s[START] for s in spans), default=0.0)
    ids = {id(s): i for i, s in enumerate(spans)}
    tids = {}
    events = []
    for span in spans:
        lane = (span[THREAD], is_async(span))
        tid = tids.setdefault(lane, len(tids) + 1)
        args = {"id": ids[id(span)]}
        if span[PARENT] is not None and id(span[PARENT]) in ids:
            args["parent"] = ids[id(span[PARENT])]
        for key, value in (span[ARGS] or {}).items():
            if isinstance(value, (bool, int, float, str)):
                args[key] = value
        events.append({
            "name": span[NAME], "cat": span[LAYER], "ph": "X",
            "ts": (span[START] - origin) * 1e6,
            "dur": (span[END] - span[START]) * 1e6,
            "pid": 1, "tid": tid, "args": args,
        })
    for (thread, asynchronous), tid in tids.items():
        label = f"thread-{thread}" + (" (coroutines)" if asynchronous else "")
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                       "args": {"name": label}})
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "metadata": metadata}, fh)
