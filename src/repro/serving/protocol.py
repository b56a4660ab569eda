"""Framed message protocol between the solver server and its clients.

Transport is a stream (unix-domain socket); each message is an 8-byte
big-endian length prefix followed by a pickled payload.  Pickle is the
right tool *for this trust boundary*: the server binds a filesystem
socket owned by the same user, the clients are the in-process
:class:`repro.serving.client.ServingClient` and the benchmark driver,
and the payloads carry live scipy sparse matrices and kernel operators
that a neutral encoding would have to re-assemble.  Do **not** expose
this socket across a privilege boundary.

Requests are dicts with ``op`` and ``request_id``; responses echo the
``request_id`` with ``ok`` plus op-specific fields, or ``ok=False`` with
a marshalled exception (``error_type``/``error_message``) that
:func:`raise_remote_error` maps back onto the repro exception hierarchy
client-side.

Ops
---
``factorize``  problem + algorithm → cache key (building on miss)
``solve``      key + (b_v, b_s) → (x_v, x_s), dispatched on arrival
``stats``      → ServerStats snapshot merged with cache stats
``ping``       liveness probe
``shutdown``   drain solves, clear the cache, stop the server
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from typing import Any, Dict, Optional

from repro.utils.errors import (
    ConfigurationError,
    FactorizationFreed,
    MemoryLimitExceeded,
    ReproError,
)

#: Frame header: unsigned 64-bit big-endian payload length.
_HEADER = struct.Struct(">Q")

#: Upper bound on a single frame; a longer prefix means a corrupt or
#: foreign stream, not a legitimate coupled system.
MAX_FRAME_BYTES = 1 << 33  # 8 GiB

#: Exception types that cross the wire by name and are re-raised as
#: themselves on the client.  Anything else becomes ServingError.
_ERROR_TYPES = {
    "FactorizationFreed": FactorizationFreed,
    "MemoryLimitExceeded": MemoryLimitExceeded,
    "ConfigurationError": ConfigurationError,
}


class ServingError(ReproError):
    """A server-side failure with no more specific client-side type."""


class ProtocolError(ReproError):
    """Malformed frame or response on the serving socket."""


class ConnectionLostError(ProtocolError):
    """The transport died under an in-flight request.

    Distinct from :class:`ProtocolError` so the client can tell a lost
    connection (retryable against a restarted server) from a corrupt
    stream or a marshalled server-side failure (not retryable)."""


async def write_message(writer: asyncio.StreamWriter, payload: Any) -> None:
    """Frame and send one message; drains the transport."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    writer.write(_HEADER.pack(len(blob)) + blob)
    await writer.drain()


async def read_message(reader: asyncio.StreamReader) -> Optional[Any]:
    """Receive one framed message; None on clean EOF before a header."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between messages
        raise ProtocolError(
            f"stream ended mid-header ({len(exc.partial)}/"
            f"{_HEADER.size} bytes)"
        ) from None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES}); corrupt stream?"
        )
    try:
        blob = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"stream ended mid-frame ({len(exc.partial)}/{length} bytes)"
        ) from None
    return pickle.loads(blob)


def error_response(request_id: int, exc: BaseException) -> Dict[str, Any]:
    """Marshal an exception into a response dict."""
    response = {
        "request_id": request_id,
        "ok": False,
        "error_type": type(exc).__name__,
        "error_message": str(exc),
    }
    if isinstance(exc, MemoryLimitExceeded):
        # structured constructor: ship the fields, not just the message
        response["error_args"] = (exc.requested, exc.in_use, exc.limit,
                                  exc.label)
    return response


def raise_remote_error(response: Dict[str, Any]) -> None:
    """Re-raise a marshalled server-side failure client-side."""
    error_type = response.get("error_type", "ServingError")
    message = response.get("error_message", "server reported a failure")
    cls = _ERROR_TYPES.get(error_type)
    if cls is MemoryLimitExceeded and "error_args" in response:
        raise cls(*response["error_args"])
    if cls is not None:
        raise cls(message)
    raise ServingError(f"{error_type}: {message}")
