"""Persistent asyncio solver server: factorize once, serve many solves.

The paper's industrial setting amortizes one expensive coupled
factorization over many right-hand sides; batch scripts do that inside
one process, but production load arrives as independent *requests*.
:class:`SolverServer` makes factorize-once/solve-many a service: a
single-process asyncio server on a unix-domain socket that

* caches live numeric factorizations in a budgeted
  :class:`~repro.serving.factor_cache.FactorCache` keyed by
  :func:`~repro.serving.factor_cache.system_fingerprint` — repeat
  ``factorize`` requests for the same system hit the cache instead of
  re-running the multifrontal + Schur pipeline;
* coalesces concurrent ``solve`` requests into blocked RHS panels
  through an :class:`~repro.serving.batcher.RhsBatcher`, recovering the
  GEMM-rich panel solves of PR 2 from single-column traffic;
* keeps the event loop non-blocking: factorizations and panel solves
  run on a small :class:`~concurrent.futures.ThreadPoolExecutor`
  (BLAS releases the GIL, so executor threads scale the way the
  in-process runtime does).

Responses to one connection are multiplexed by ``request_id`` — a
client may pipeline many requests and receive completions out of
order (a cache-hit solve overtakes a slow factorize).

The server is deliberately single-node and same-user (see
``repro.serving.protocol`` for the trust boundary), matching the
paper's single-node multi-core scope.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional

from repro.core.config import SolverConfig
from repro.core.factorized import CoupledFactorization
from repro.serving.batcher import RhsBatcher
from repro.serving.factor_cache import FactorCache, system_fingerprint
from repro.serving.protocol import (
    ServingError,
    error_response,
    read_message,
    write_message,
)
from repro.serving.stats import ServerStats


def default_socket_path() -> str:
    """Per-user default unix socket path."""
    return os.path.join(tempfile.gettempdir(),
                        f"repro-serve-{os.getpid()}.sock")


class SolverServer:
    """Factorization-as-a-service over a unix-domain socket.

    Parameters
    ----------
    config:
        Solver configuration; the ``serve_*`` fields size the cache,
        the batcher and the executor (see :class:`SolverConfig`).
    socket_path:
        Unix socket to bind; defaults to a per-PID path under the
        system temp directory.
    cache_enabled:
        ``False`` disables numeric-factor reuse (every ``factorize``
        request builds).
    """

    def __init__(self, config: SolverConfig = SolverConfig(),
                 socket_path: Optional[str] = None,
                 cache_enabled: bool = True) -> None:
        self.config = config
        self.socket_path = socket_path or default_socket_path()
        self.stats = ServerStats()
        self.cache = FactorCache(
            max_entries=config.serve_cache_entries,
            budget_bytes=config.serve_cache_budget,
            enabled=cache_enabled,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=config.serve_executor_threads,
            thread_name_prefix="repro-serve",
        )
        self._batcher: Optional[RhsBatcher] = None
        self._connections: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._stopped = False

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start accepting connections."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._batcher = RhsBatcher(
            self._loop,
            self._solve_in_executor,
            linger_seconds=self.config.serve_batch_linger_ms / 1000.0,
            max_cols=self.config.effective_serve_max_batch_cols,
            enabled=self.config.serve_batching,
            on_batch=self.stats.record_batch,
        )
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)  # stale socket from a dead server
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=self.socket_path,
        )

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` request arrives, then stop cleanly."""
        if self._server is None:
            await self.start()
        assert self._shutdown_event is not None
        await self._shutdown_event.wait()
        await self.stop()

    async def stop(self) -> None:
        """Drain batches, drop the cache, verify the byte balance is zero."""
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
        # let accepts already in flight land in _handle_connection, so
        # the disconnect sweep below reaches them too
        for _ in range(3):
            await asyncio.sleep(0)
        # disconnect established clients — a stopped server must not
        # leave half-alive connections that accept requests it can no
        # longer serve (clients see EOF and may reconnect elsewhere).
        # This must happen before wait_closed(): it blocks until every
        # connection handler exits, which the handlers only do on EOF.
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        if self._batcher is not None:
            await self._batcher.drain()
        # all blocked work has drained, so joining the executor here is
        # immediate — it does not stall the loop
        self._executor.shutdown(wait=True)
        self.cache.clear()
        self.cache.tracker.assert_all_freed()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    def request_shutdown(self) -> None:
        """Signal :meth:`serve_until_shutdown` to exit (loop thread only)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    # -- connection handling ---------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.stats.n_connections += 1
        self._connections.add(writer)
        write_lock = asyncio.Lock()  # serialize frames from request tasks
        tasks: set = set()
        try:
            while True:
                message = await read_message(reader)
                if message is None:
                    break
                task = asyncio.ensure_future(
                    self._handle_request(message, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished; in-flight tasks fail their writes
        finally:
            self._connections.discard(writer)
            if tasks:
                await asyncio.gather(*list(tasks), return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_request(self, message: Dict[str, Any],
                              writer: asyncio.StreamWriter,
                              write_lock: asyncio.Lock) -> None:
        request_id = message.get("request_id", -1)
        op = message.get("op", "<missing>")
        self.stats.record_request(op)
        try:
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                raise ServingError(f"unknown op {op!r}")
            response = await handler(message)
            response["request_id"] = request_id
            response.setdefault("ok", True)
        except Exception as exc:
            self.stats.record_error()
            response = error_response(request_id, exc)
        try:
            async with write_lock:
                await write_message(writer, response)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client closed before its response; nothing to do

    # -- ops -------------------------------------------------------------------
    async def _op_factorize(self, message: Dict[str, Any]) -> Dict[str, Any]:
        problem = message["problem"]
        algorithm = message.get("algorithm", "multi_solve")
        config = self.config
        assert self._loop is not None

        def fingerprint_and_build():
            # runs on an executor thread: hashing megabytes of matrix
            # values and (on a miss) the full factorization pipeline
            key = system_fingerprint(problem, algorithm, config)
            return self.cache.get_or_build(
                key,
                lambda: CoupledFactorization(problem, algorithm, config),
            )

        start = time.perf_counter()
        result = await self._loop.run_in_executor(
            self._executor, fingerprint_and_build,
        )
        self.stats.record_factorize(time.perf_counter() - start)
        return {
            "key": result.key,
            "hit": result.hit,
            "evictions": result.evictions,
            "peak_bytes": result.entry.peak_bytes,
            "n_fem": result.entry.problem.n_fem,
            "n_bem": result.entry.problem.n_bem,
        }

    async def _op_solve(self, message: Dict[str, Any]) -> Dict[str, Any]:
        key = message["key"]
        fact = self.cache.lookup(key)
        if fact is None:
            raise ServingError(
                f"no live factorization for key {key!r} (never factorized "
                f"on this server, or evicted — factorize again)"
            )
        assert self._batcher is not None
        future = self._batcher.submit(key, fact, message["b_v"],
                                      message["b_s"])
        x_v, x_s = await future
        return {"x_v": x_v, "x_s": x_s}

    async def _op_stats(self, message: Dict[str, Any]) -> Dict[str, Any]:
        assert self._batcher is not None
        snapshot = self.stats.snapshot(self.cache.stats())
        snapshot["pending_solves"] = self._batcher.n_pending
        return {"stats": snapshot}

    async def _op_ping(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True}

    async def _op_shutdown(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.request_shutdown()
        return {"stopping": True}

    # -- blocked work ----------------------------------------------------------
    async def _solve_in_executor(self, fact: CoupledFactorization,
                                 b_v, b_s):
        """Run one (possibly batched) panel solve off the event loop."""
        assert self._loop is not None

        def blocked_solve():
            return fact.solve(b_v, b_s)

        return await self._loop.run_in_executor(
            self._executor, blocked_solve,
        )


async def run_server(config: SolverConfig = SolverConfig(),
                     socket_path: Optional[str] = None,
                     cache_enabled: bool = True,
                     ready_event: Optional[asyncio.Event] = None,
                     ) -> SolverServer:
    """Start a server and block until it is asked to shut down.

    ``ready_event`` (if given) is set once the socket is accepting —
    the hook the CLI and the tests use to order client startup.
    """
    server = SolverServer(config, socket_path=socket_path,
                          cache_enabled=cache_enabled)
    await server.start()
    if ready_event is not None:
        ready_event.set()
    await server.serve_until_shutdown()
    return server
