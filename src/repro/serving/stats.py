"""Server-side observability: request counters and latency.

:class:`ServerStats` is the single mutable stats surface of the solver
server.  The solve/latency aggregates are **event-loop confined** —
only the asyncio loop thread mutates them (executor results come back
through loop callbacks), so they need no lock; the factor-cache counters
live inside :class:`repro.serving.factor_cache.FactorCache` (which *is*
shared with executor threads and has its own lock) and are merged into
:meth:`snapshot` on demand.

A snapshot is a plain JSON-able dict, served over the wire for the
``stats`` request.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class _LatencyAggregate:
    """Count/total/max plus a bounded reservoir for percentiles."""

    __slots__ = ("count", "total", "max", "_samples", "_cap")

    def __init__(self, sample_cap: int = 4096) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self._samples: List[float] = []
        self._cap = int(sample_cap)

    def add(self, seconds: float) -> None:
        seconds = float(seconds)
        self.count += 1
        self.total += seconds
        self.max = max(self.max, seconds)
        # keep the first cap samples: the synthetic bench loads are far
        # below the cap, and a truthful prefix beats a biased reservoir
        # that would need a (determinism-checked) RNG
        if len(self._samples) < self._cap:
            self._samples.append(seconds)

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile over the retained samples."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
        return ordered[rank]

    def to_dict(self) -> Dict[str, object]:
        mean = self.total / self.count if self.count else None
        return {
            "count": self.count,
            "total_seconds": self.total,
            "mean_seconds": mean,
            "max_seconds": self.max if self.count else None,
            "p50_seconds": self.percentile(0.50),
            "p99_seconds": self.percentile(0.99),
        }


class ServerStats:
    """Counters of one :class:`repro.serving.server.SolverServer` run."""

    def __init__(self) -> None:
        self.n_connections = 0
        self.n_requests: Dict[str, int] = {}
        self.n_errors = 0
        self.n_solve_requests = 0
        self.n_solve_columns = 0
        self.queue_wait = _LatencyAggregate()
        self.solve_latency = _LatencyAggregate()
        self.factorize_latency = _LatencyAggregate()

    # -- recording (event-loop thread only) -----------------------------------
    def record_request(self, op: str) -> None:
        self.n_requests[op] = self.n_requests.get(op, 0) + 1

    def record_error(self) -> None:
        self.n_errors += 1

    def record_solve(self, n_columns: int, queue_wait: float,
                     solve_seconds: float) -> None:
        self.n_solve_requests += 1
        self.n_solve_columns += n_columns
        self.queue_wait.add(queue_wait)
        self.solve_latency.add(solve_seconds)

    def record_factorize(self, seconds: float) -> None:
        self.factorize_latency.add(seconds)

    # -- export ---------------------------------------------------------------
    def snapshot(self, cache_stats: Optional[Dict[str, object]] = None
                 ) -> Dict[str, object]:
        """JSON-able snapshot, optionally merged with the factor cache's."""
        out: Dict[str, object] = {
            "connections": self.n_connections,
            "requests": dict(self.n_requests),
            "errors": self.n_errors,
            "solve": {
                "requests": self.n_solve_requests,
                "columns": self.n_solve_columns,
                # every request is dispatched alone, so it is one batch;
                # the benchmark harness still reads these two keys
                "batches": self.n_solve_requests,
                "batched_requests": self.n_solve_requests,
                "queue_wait": self.queue_wait.to_dict(),
                "latency": self.solve_latency.to_dict(),
            },
            "factorize": {
                "latency": self.factorize_latency.to_dict(),
            },
        }
        if cache_stats is not None:
            out["cache"] = cache_stats
        return out
