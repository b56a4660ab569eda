"""Async client for :class:`repro.serving.server.SolverServer`.

One :class:`ServingClient` owns one connection.  Requests are pipelined:
every call gets a fresh ``request_id``, a background reader task matches
responses back to their futures, so many coroutines can share a client
and issue overlapping ``solve`` calls, which the server runs
concurrently on its executor.

Clients built by :meth:`ServingClient.connect` remember the socket path
and transparently **reconnect with bounded exponential backoff** when the
connection drops mid-request (server restart, transient socket failure):
the failed request is re-sent on the fresh connection — every server op
is idempotent against the factor cache except ``shutdown``, which is
never retried.

>>> client = await ServingClient.connect(socket_path)
>>> result = await client.factorize(problem)          # miss: builds
>>> x_v, x_s = await client.solve(result.key, b_v, b_s)
>>> await client.close()
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.serving.protocol import (
    ConnectionLostError,
    ProtocolError,
    raise_remote_error,
    read_message,
    write_message,
)

#: Reconnect policy: one request is retried at most ``DEFAULT_RETRIES``
#: times after a lost connection, waiting ``DEFAULT_BACKOFF_BASE ·
#: 2^attempt`` seconds capped at ``DEFAULT_BACKOFF_CAP`` between attempts.
DEFAULT_RETRIES = 5
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 1.0


class FactorizeResult:
    """Outcome of a ``factorize`` request."""

    __slots__ = ("key", "hit", "evictions", "peak_bytes")

    def __init__(self, key: str, hit: bool, evictions: int,
                 peak_bytes: int) -> None:
        self.key = key
        self.hit = hit
        self.evictions = evictions
        self.peak_bytes = peak_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "hit" if self.hit else "miss"
        return f"FactorizeResult({self.key[:12]}…, {state})"


class ServingClient:
    """Request-pipelined connection to a running solver server."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 socket_path: Optional[str] = None) -> None:
        self._reader = reader
        self._writer = writer
        self._socket_path = socket_path
        self._write_lock = asyncio.Lock()
        self._reconnect_lock = asyncio.Lock()
        self._pending: Dict[int, "asyncio.Future"] = {}
        self._next_id = 0
        self._closed = False
        self._broken = False
        self._reader_task = asyncio.ensure_future(self._read_loop(reader))

    @classmethod
    async def connect(cls, socket_path: str) -> "ServingClient":
        """Connect to ``socket_path`` and remember it for reconnects."""
        reader, writer = await asyncio.open_unix_connection(socket_path)
        return cls(reader, writer, socket_path=socket_path)

    # -- plumbing --------------------------------------------------------------
    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        error: Optional[BaseException] = None
        try:
            while True:
                response = await read_message(reader)
                if response is None:
                    break
                future = self._pending.pop(response.get("request_id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except asyncio.CancelledError:
            error = ProtocolError("client closed with requests in flight")
        except (ConnectionError, OSError) as exc:
            error = ConnectionLostError(f"connection lost: {exc}")
        except Exception as exc:
            error = exc  # e.g. a corrupt stream — not retryable
        if error is None:
            error = ConnectionLostError("server closed the connection")
        # only the loop of the *current* connection declares it broken —
        # a stale loop draining after a reconnect must not flip the state
        if reader is self._reader:
            self._broken = True
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()

    async def _ensure_connected(self) -> None:
        """Re-open the remembered socket if the connection is broken.

        Single-flight: concurrent retrying requests serialize here and
        all but the first find the connection already repaired.
        """
        async with self._reconnect_lock:
            if self._closed:
                raise ProtocolError("client is closed")
            if not self._broken:
                return
            if self._socket_path is None:
                raise ConnectionLostError(
                    "connection lost and no socket path to reconnect to"
                )
            # retire the dead transport completely before swapping, so its
            # read loop cannot fail futures belonging to the new connection
            self._reader_task.cancel()
            await asyncio.gather(self._reader_task, return_exceptions=True)
            self._writer.close()
            try:
                reader, writer = await asyncio.open_unix_connection(
                    self._socket_path
                )
            except OSError as exc:
                # no server on the socket (yet): the same typed, retryable
                # failure as a connection that drops mid-request
                raise ConnectionLostError(
                    f"reconnect to {self._socket_path} failed: {exc}"
                ) from exc
            self._reader = reader
            self._writer = writer
            self._reader_task = asyncio.ensure_future(self._read_loop(reader))
            self._broken = False

    async def _request_once(self, op: str, **fields: Any) -> Dict[str, Any]:
        request_id = self._next_id
        self._next_id += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        message = {"op": op, "request_id": request_id, **fields}
        try:
            async with self._write_lock:
                await write_message(self._writer, message)
        except (ConnectionError, OSError) as exc:
            self._pending.pop(request_id, None)
            if future.done():
                future.exception()  # the read loop failed it first
            self._broken = True
            raise ConnectionLostError(f"send failed: {exc}") from exc
        response = await future
        if not response.get("ok"):
            raise_remote_error(response)
        return response

    async def _request(self, op: str, **fields: Any) -> Dict[str, Any]:
        attempt = 0
        while True:
            if self._closed:
                raise ProtocolError("client is closed")
            try:
                if self._broken:
                    await self._ensure_connected()
                return await self._request_once(op, **fields)
            except ConnectionLostError:
                self._broken = True
                retryable = (
                    op != "shutdown"
                    and self._socket_path is not None
                    and not self._closed
                )
                if not retryable or attempt >= DEFAULT_RETRIES:
                    raise
                delay = min(DEFAULT_BACKOFF_CAP,
                            DEFAULT_BACKOFF_BASE * (2 ** attempt))
                attempt += 1
                await asyncio.sleep(delay)

    # -- API -------------------------------------------------------------------
    async def factorize(self, problem, algorithm: str = "multi_solve",
                        ) -> FactorizeResult:
        """Ensure a live factorization of ``problem``; returns its key."""
        response = await self._request("factorize", problem=problem,
                                       algorithm=algorithm)
        return FactorizeResult(response["key"], response["hit"],
                               response["evictions"],
                               response["peak_bytes"])

    async def solve(self, key: str, b_v: np.ndarray, b_s: np.ndarray,
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Solve one load case against the cached factorization ``key``."""
        response = await self._request("solve", key=key, b_v=b_v, b_s=b_s)
        return response["x_v"], response["x_s"]

    async def solve_system(self, problem, algorithm: str = "multi_solve",
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """Factorize (or hit the cache) and solve the embedded RHS."""
        result = await self.factorize(problem, algorithm)
        return await self.solve(result.key, problem.b_v, problem.b_s)

    async def stats(self) -> Dict[str, Any]:
        """The server's stats snapshot (requests, cache, solve latency)."""
        response = await self._request("stats")
        return response["stats"]

    async def ping(self) -> bool:
        response = await self._request("ping")
        return bool(response.get("pong"))

    async def shutdown_server(self) -> None:
        """Ask the server to drain and exit (never retried)."""
        await self._request("shutdown")

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        self._reader_task.cancel()
        await asyncio.gather(self._reader_task, return_exceptions=True)

    async def __aenter__(self) -> "ServingClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
