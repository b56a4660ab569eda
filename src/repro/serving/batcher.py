"""Dispatch each served solve to the executor the moment it arrives.

:class:`RhsBatcher` once held pending solves for a linger window and
glued them into one blocked panel.  Measured on pipe 8k (hmat, ε 1e-3,
one BLAS thread), a k-column panel clearly beats k single-column solves
only from k = 3 up; at k = 2 it costs about the same (−11 % to +10 %
over four readings).  The server's two closed-loop clients never queue
more than two requests, so each panel saved nothing and first waited
out the linger (``EXPERIMENTS.md``, "Serving: the width curve").  The class now only dispatches: each request's arrays go to
:meth:`CoupledFactorization.solve` on the server's executor as they
arrived, so every served solution is byte-identical to a direct solve
of the same arrays.  The module and class keep their names because the
benchmark harness wraps ``RhsBatcher.submit`` by name; a change to the
harness can rename them.

The dispatcher is **event-loop confined**: :meth:`submit`,
:meth:`drain` and the stats callback run on the loop thread, only the
solve itself runs on an executor thread.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Executor
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.factorized import CoupledFactorization


class RhsBatcher:
    """Runs each submitted solve on an executor as a request of its own.

    Parameters
    ----------
    loop:
        The event loop :meth:`submit` and :meth:`drain` are called from.
    executor:
        Where ``fact.solve`` runs; ``None`` is the loop's default
        executor.
    on_solve:
        Optional callback ``(n_columns, queue_wait, solve_seconds)``
        invoked on the loop thread per finished solve (stats hook).
        ``queue_wait`` runs from :meth:`submit` to the moment an
        executor thread starts the solve.
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        executor: Optional[Executor] = None,
        on_solve: Optional[Callable] = None,
    ) -> None:
        self._loop = loop
        self._executor = executor
        self._on_solve = on_solve
        self._inflight: set = set()

    def submit(self, fact: CoupledFactorization,
               b_v: np.ndarray, b_s: np.ndarray) -> "asyncio.Future":
        """Start solving one load case; the future resolves to
        ``(x_v, x_s)``."""
        task = self._loop.create_task(
            self._solve(fact, b_v, b_s, time.perf_counter())
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)
        return task

    async def drain(self) -> None:
        """Wait for every in-flight solve to finish."""
        while self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)

    @property
    def n_inflight(self) -> int:
        """Solves submitted and not yet finished."""
        return len(self._inflight)

    async def _solve(self, fact: CoupledFactorization, b_v, b_s,
                     submitted: float) -> Tuple[np.ndarray, np.ndarray]:
        def timed_solve():
            started = time.perf_counter()
            result = fact.solve(b_v, b_s)
            return started, time.perf_counter() - started, result

        started, seconds, (x_v, x_s) = await self._loop.run_in_executor(
            self._executor, timed_solve,
        )
        if self._on_solve is not None:
            n_cols = 1 if np.ndim(b_v) == 1 else int(np.shape(b_v)[1])
            self._on_solve(n_cols, started - submitted, seconds)
        return x_v, x_s
