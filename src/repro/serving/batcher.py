"""Coalesce pending right-hand sides into blocked solve panels.

The paper's central performance lesson — and PR 2's — is that dense
triangular solves amortize over RHS *panels*: one GEMM-rich blocked
sweep over 32 columns costs far less than 32 GEMV-bound vector sweeps.
A serving workload arrives as many small independent requests, so the
panel has to be *re-assembled at the server*: :class:`RhsBatcher` holds
compatible pending solves (same factorization key, same dtypes) for a
short linger window (:data:`LINGER_SECONDS`), concatenates their columns
into one panel of at most :data:`MAX_BATCH_COLS`, runs a single blocked
solve, and scatters the result columns back to each caller's future.

Batching discipline:

* **event-loop confined** — all batcher state is touched only from the
  asyncio loop thread; the blocked solve itself runs in an executor via
  the ``run_solve`` coroutine the server injects, so the loop never
  blocks on BLAS;
* **deterministic scatter** — requests keep their arrival order inside
  the panel, and each caller gets back exactly the columns it submitted
  (vector in, vector out);
* **byte-exactness boundary** — a batch of **one** request passes the
  caller's arrays through unmodified, so its solution is byte-identical
  to a direct :meth:`CoupledFactorization.solve`.  Coalesced multi-
  request panels take the GEMM path, whose column results agree with
  the vector path only to solver tolerance (see ``docs/serving.md``), so
  a bit-reproducibility audit sends its requests one at a time.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.factorized import CoupledFactorization
from repro.sparse.multifrontal import DEFAULT_RHS_PANEL

#: How long the first request of a panel waits for company.
LINGER_SECONDS = 0.002

#: Panel column cap: the blocked-sweep panel width, so one batch is
#: exactly one cache-resident sweep.  A group dispatches early when full;
#: a single oversized request dispatches alone, unsplit.
MAX_BATCH_COLS = DEFAULT_RHS_PANEL


def _as_panel(column: np.ndarray) -> np.ndarray:
    """View a 1-D load case as an (n, 1) panel; pass 2-D through."""
    return column[:, None] if column.ndim == 1 else column


class _PendingSolve:
    """One submitted load case waiting for its panel to dispatch."""

    __slots__ = ("b_v", "b_s", "n_cols", "vector", "future", "enqueued_at")

    def __init__(self, b_v: np.ndarray, b_s: np.ndarray,
                 future: "asyncio.Future", enqueued_at: float) -> None:
        self.b_v = b_v
        self.b_s = b_s
        self.vector = b_v.ndim == 1
        self.n_cols = 1 if self.vector else int(b_v.shape[1])
        self.future = future
        self.enqueued_at = enqueued_at


class _Group:
    """Pending solves sharing one factorization key and dtype pair."""

    __slots__ = ("fact", "pending", "n_cols", "timer_handle")

    def __init__(self, fact: CoupledFactorization) -> None:
        self.fact = fact
        self.pending: List[_PendingSolve] = []
        self.n_cols = 0
        self.timer_handle: Optional[asyncio.TimerHandle] = None


class RhsBatcher:
    """Linger-window RHS coalescer in front of blocked panel solves.

    Parameters
    ----------
    loop:
        The event loop all batcher methods are called from.
    run_solve:
        Coroutine ``(fact, b_v, b_s) -> (x_v, x_s)`` performing the
        blocked solve without blocking the loop (the server wraps the
        solve in ``run_in_executor``).
    on_batch:
        Optional callback ``(n_requests, n_columns, queue_waits,
        solve_seconds)`` invoked per dispatched panel (stats hook).
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        run_solve: Callable,
        on_batch: Optional[Callable] = None,
    ) -> None:
        self._loop = loop
        self._run_solve = run_solve
        self.linger_seconds = LINGER_SECONDS
        self.max_cols = MAX_BATCH_COLS
        self._on_batch = on_batch
        self._groups: Dict[Tuple, _Group] = {}
        self._inflight: set = set()

    # -- submission (event-loop thread only) -----------------------------------
    def submit(self, key: str, fact: CoupledFactorization,
               b_v: np.ndarray, b_s: np.ndarray) -> "asyncio.Future":
        """Queue one load case; the future resolves to ``(x_v, x_s)``."""
        b_v = np.asarray(b_v)
        b_s = np.asarray(b_s)
        pending = _PendingSolve(b_v, b_s, self._loop.create_future(),
                                time.monotonic())
        gkey = (key, b_v.dtype.str, b_s.dtype.str)
        group = self._groups.get(gkey)
        if group is not None and group.n_cols + pending.n_cols > self.max_cols:
            self._fire(gkey)   # full: dispatch what we have, start fresh
            group = None
        if group is None:
            group = _Group(fact)
            self._groups[gkey] = group
            group.timer_handle = self._loop.call_later(
                self.linger_seconds, self._fire, gkey,
            )
        group.pending.append(pending)
        group.n_cols += pending.n_cols
        if group.n_cols >= self.max_cols:
            self._fire(gkey)
        return pending.future

    def flush(self) -> None:
        """Dispatch every lingering group immediately."""
        for gkey in list(self._groups):
            self._fire(gkey)

    async def drain(self) -> None:
        """Flush and wait for all in-flight panel solves to finish."""
        self.flush()
        while self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)

    @property
    def n_pending(self) -> int:
        """Requests currently lingering (not yet dispatched)."""
        return sum(len(g.pending) for g in self._groups.values())

    # -- dispatch --------------------------------------------------------------
    def _fire(self, gkey: Tuple) -> None:
        group = self._groups.pop(gkey, None)
        if group is None:
            return
        self._dispatch(group)

    def _dispatch(self, group: _Group) -> None:
        if group.timer_handle is not None:
            group.timer_handle.cancel()
            group.timer_handle = None
        task = self._loop.create_task(self._run_batch(group))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, group: _Group) -> None:
        pending = group.pending
        dispatched_at = time.monotonic()
        waits = [dispatched_at - p.enqueued_at for p in pending]
        if len(pending) == 1:
            # panel of one: hand the caller's arrays through unmodified
            # so the result is byte-identical to a direct solve
            b_v, b_s = pending[0].b_v, pending[0].b_s
        else:
            b_v = np.concatenate([_as_panel(p.b_v) for p in pending], axis=1)
            b_s = np.concatenate([_as_panel(p.b_s) for p in pending], axis=1)
        start = time.perf_counter()
        try:
            x_v, x_s = await self._run_solve(group.fact, b_v, b_s)
        except Exception as exc:
            for p in pending:
                if not p.future.done():
                    p.future.set_exception(exc)
            return
        solve_seconds = time.perf_counter() - start
        if self._on_batch is not None:
            self._on_batch(len(pending), group.n_cols, waits, solve_seconds)
        if len(pending) == 1:
            if not pending[0].future.done():
                pending[0].future.set_result((x_v, x_s))
            return
        offset = 0
        for p in pending:
            if p.vector:
                result = (np.ascontiguousarray(x_v[:, offset]),
                          np.ascontiguousarray(x_s[:, offset]))
            else:
                result = (
                    np.ascontiguousarray(x_v[:, offset:offset + p.n_cols]),
                    np.ascontiguousarray(x_s[:, offset:offset + p.n_cols]),
                )
            if not p.future.done():
                p.future.set_result(result)
            offset += p.n_cols
