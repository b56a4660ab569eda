"""Factorization-as-a-service: solver server, factor cache, RHS batching.

The serving layer turns the library's factorize-once/solve-many core
into a persistent single-node service (see ``docs/serving.md``):

* :class:`SolverServer` / :func:`run_server` — asyncio server on a
  unix-domain socket (CLI: ``python -m repro.runner serve``);
* :class:`ServingClient` — pipelined async client;
* :class:`FactorCache` — budgeted LRU cache of live numeric
  factorizations keyed by :func:`system_fingerprint`;
* :class:`RhsBatcher` — linger-window coalescing of single-column
  solve requests into blocked panels.
"""

from repro.serving.batcher import RhsBatcher
from repro.serving.client import FactorizeResult, ServingClient
from repro.serving.factor_cache import (
    FACTOR_CACHE_CATEGORY,
    CacheResult,
    FactorCache,
    config_fingerprint_fields,
    system_fingerprint,
)
from repro.serving.protocol import (
    ConnectionLostError,
    ProtocolError,
    ServingError,
)
from repro.serving.server import (
    SolverServer,
    default_socket_path,
    run_server,
)
from repro.serving.stats import ServerStats

__all__ = [
    "FACTOR_CACHE_CATEGORY",
    "CacheResult",
    "ConnectionLostError",
    "FactorCache",
    "FactorizeResult",
    "ProtocolError",
    "RhsBatcher",
    "ServerStats",
    "ServingClient",
    "ServingError",
    "SolverServer",
    "config_fingerprint_fields",
    "default_socket_path",
    "run_server",
    "system_fingerprint",
]
