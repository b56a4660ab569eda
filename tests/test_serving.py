"""Integration tests for the asyncio solver server and client.

Each test runs a real :class:`SolverServer` on a unix socket inside
``asyncio.run`` and talks to it through :class:`ServingClient` — the
same path production traffic takes, including pickling the coupled
problem across the socket.  Server shutdown asserts the factor-cache
tracker balance is zero, so every test doubles as a leak check (under
the module watchdog from ``conftest.py``).
"""

import asyncio
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import SolverConfig, solve_coupled
from repro.serving import (
    ConnectionLostError,
    ServingClient,
    SolverServer,
    ServingError,
)
from repro.serving.protocol import error_response, raise_remote_error
from repro.utils.errors import FactorizationFreed, MemoryLimitExceeded

CONFIG_KW = dict(dense_backend="hmat", n_c=64)


def short_socket_path():
    # unix socket paths are length-limited (~104 bytes); pytest tmp_path
    # can exceed that, so mint a short one under the system tempdir
    return os.path.join(tempfile.mkdtemp(prefix="repro-srv-"), "s.sock")


def run_with_server(config, body):
    """Run ``body(server, client)`` against a live server; clean stop."""

    async def main():
        server = SolverServer(config, socket_path=short_socket_path())
        await server.start()
        client = await ServingClient.connect(server.socket_path)
        try:
            return await body(server, client)
        finally:
            await client.close()
            await server.stop()  # asserts tracker balance is zero

    return asyncio.run(main())


def serve_concurrently(problem, loads):
    """Solve ``loads`` (``(b_v, b_s)`` pairs) all at once from two clients
    and assert each answer ``array_equal`` (shape included) to a direct
    ``fact.solve`` of the same arrays on the factorization the server
    cached; returns the server's ``solve`` stats."""

    async def body(server, client):
        other = await ServingClient.connect(server.socket_path)
        try:
            key = (await client.factorize(problem)).key
            clients = [client, other]
            outs = await asyncio.gather(*[
                clients[i % 2].solve(key, b_v, b_s)
                for i, (b_v, b_s) in enumerate(loads)
            ])
        finally:
            await other.close()
        fact = server.cache.lookup(key)
        for (b_v, b_s), (x_v, x_s) in zip(loads, outs):
            d_v, d_s = fact.solve(b_v, b_s)
            np.testing.assert_array_equal(x_v, d_v, strict=True)
            np.testing.assert_array_equal(x_s, d_s, strict=True)
        return (await client.stats())["solve"]

    return run_with_server(SolverConfig(**CONFIG_KW), body)


class TestProtocolBasics:
    def test_ping_and_stats(self, pipe_small):
        async def body(server, client):
            assert await client.ping()
            stats = await client.stats()
            assert stats["connections"] == 1
            assert stats["cache"]["entries"] == 0

        run_with_server(SolverConfig(**CONFIG_KW), body)

    def test_unknown_key_is_a_clean_error(self, pipe_small):
        async def body(server, client):
            with pytest.raises(ServingError, match="no live factorization"):
                await client.solve("deadbeef", pipe_small.b_v,
                                   pipe_small.b_s)
            # the connection survives the error
            assert await client.ping()

        run_with_server(SolverConfig(**CONFIG_KW), body)

    def test_factorize_miss_leaves_the_loop_free(self, pipe_small):
        """A factorization runs on the executor: a ping sent while a
        cache-missing factorize is in flight is answered first."""
        async def body(server, client):
            done = []

            async def factorize():
                await client.factorize(pipe_small)
                done.append("factorize")

            async def ping():
                assert await client.ping()
                done.append("ping")

            await asyncio.gather(factorize(), ping())
            assert done == ["ping", "factorize"]

        run_with_server(SolverConfig(**CONFIG_KW), body)

    def test_error_marshalling_round_trip(self):
        response = error_response(7, FactorizationFreed("evicted"))
        with pytest.raises(FactorizationFreed, match="evicted"):
            raise_remote_error(response)
        with pytest.raises(ServingError, match="KeyError"):
            raise_remote_error(error_response(8, KeyError("nope")))

    def test_shutdown_op_stops_the_server(self, pipe_small):
        async def main():
            server = SolverServer(SolverConfig(**CONFIG_KW),
                                  socket_path=short_socket_path())
            await server.start()
            runner = asyncio.ensure_future(server.serve_until_shutdown())
            client = await ServingClient.connect(server.socket_path)
            await client.shutdown_server()
            await client.close()
            await asyncio.wait_for(runner, timeout=30)
            assert not os.path.exists(server.socket_path)

        asyncio.run(main())


class TestFactorizeAndSolve:
    def test_lone_request_is_byte_identical_even_with_batching(
            self, pipe_small):
        """A request's arrays reach ``fact.solve`` unmodified."""
        config = SolverConfig(**CONFIG_KW)
        reference = solve_coupled(pipe_small, "multi_solve", config)

        async def body(server, client):
            result = await client.factorize(pipe_small)
            x_v, x_s = await client.solve(result.key, pipe_small.b_v,
                                          pipe_small.b_s)
            np.testing.assert_array_equal(x_v, reference.x_v)
            np.testing.assert_array_equal(x_s, reference.x_s)
            stats = await client.stats()
            assert stats["solve"]["requests"] == 1
            assert stats["solve"]["batches"] == 1  # one request, one batch

        run_with_server(config, body)

    def test_batch_of_one_through_the_batcher_is_byte_identical(
            self, pipe_small):
        """The dispatcher hands the caller's arrays to ``fact.solve`` as
        they are, so the in-place kernel sees the very same one-column
        block a direct call would."""
        from repro.core import CoupledFactorization
        from repro.serving.batcher import RhsBatcher

        fact = CoupledFactorization(pipe_small, "multi_solve",
                                    SolverConfig(**CONFIG_KW))
        direct = fact.solve(pipe_small.b_v, pipe_small.b_s)

        async def main():
            batcher = RhsBatcher(asyncio.get_running_loop())
            return await batcher.submit(fact, pipe_small.b_v,
                                        pipe_small.b_s)

        x_v, x_s = asyncio.run(main())
        np.testing.assert_array_equal(x_v, direct[0])
        np.testing.assert_array_equal(x_s, direct[1])
        fact.free()

    def test_repeat_factorize_hits_the_cache(self, pipe_small):
        async def body(server, client):
            first = await client.factorize(pipe_small)
            second = await client.factorize(pipe_small)
            assert not first.hit and second.hit
            assert first.key == second.key
            stats = await client.stats()
            assert stats["cache"]["hits"] == 1
            assert stats["cache"]["misses"] == 1
            assert stats["cache"]["entries"] == 1

        run_with_server(SolverConfig(**CONFIG_KW), body)

    def test_concurrent_solves_are_byte_identical(self, pipe_small):
        """Overlapping vector requests from two clients: each answer is
        ``array_equal`` to a direct solve, and each request is its own
        batch."""
        scales = [1.0, -2.0, 0.5, 3.0, -1.5, 0.25]
        stats = serve_concurrently(pipe_small, [
            (s * pipe_small.b_v, s * pipe_small.b_s) for s in scales])
        assert stats["requests"] == len(scales)
        assert stats["batches"] == len(scales)
        assert stats["queue_wait"]["count"] == len(scales)

    def test_matrix_and_vector_solves_are_byte_identical(self, pipe_small):
        """Multi-column and vector requests in flight together, from two
        clients: each comes back in its own shape, ``array_equal`` to a
        direct solve."""
        panel_v = np.stack([pipe_small.b_v, 2 * pipe_small.b_v], axis=1)
        panel_s = np.stack([pipe_small.b_s, 2 * pipe_small.b_s], axis=1)
        stats = serve_concurrently(pipe_small, [
            (panel_v, panel_s),
            (-1.0 * pipe_small.b_v, -1.0 * pipe_small.b_s),
            (3.0 * panel_v, 3.0 * panel_s),
            (pipe_small.b_v, pipe_small.b_s)])
        assert stats["columns"] == 6


class TestCacheLifecycleOverProtocol:
    def test_eviction_under_budget_and_zero_balance(self, pipe_small):
        """A miss under a full budget evicts the LRU entry; the server
        shutdown (run_with_server teardown) asserts a zero balance."""
        import pickle

        # a second system of identical size but different values: same
        # entry footprint, different fingerprint
        other = pickle.loads(pickle.dumps(pipe_small))
        other.a_vv.data *= 1.125

        async def body(server, client):
            first = await client.factorize(pipe_small)
            # budget sized after the fact: room for one entry only
            server.cache.tracker.limit_bytes = int(
                1.5 * first.peak_bytes
            )
            second = await client.factorize(other)
            assert not second.hit
            assert second.key != first.key
            assert second.evictions == 1
            stats = await client.stats()
            assert stats["cache"]["entries"] == 1
            assert stats["cache"]["evictions"] == 1
            # the evicted key is gone; the server says so cleanly
            with pytest.raises(ServingError, match="no live factorization"):
                await client.solve(first.key, pipe_small.b_v,
                                   pipe_small.b_s)
            x_v, x_s = await client.solve(second.key, other.b_v,
                                          other.b_s)
            # `other` has no manufactured exact solution (its values were
            # perturbed), so judge by the residual of its own system
            assert other.residual_norm(x_v, x_s) < 1e-4

        # ℋ rounds at ε, so the 1e-4 residual bound needs ε = 1e-4
        run_with_server(SolverConfig(**CONFIG_KW, epsilon=1e-4), body)

    def test_factorize_over_the_memory_limit_leaves_nothing_behind(
            self, pipe_small):
        """A served factorize under a ``memory_limit`` it cannot meet: the
        typed error reaches the client, the server keeps answering, the
        cache holds neither an entry nor a build latch, a retry is a fresh
        miss that fails the same way, and ``stop()`` (run_with_server
        teardown) finds a zero balance."""
        limit = 1 << 20  # below the ~2.4 MB peak of pipe_small

        async def body(server, client):
            with pytest.raises(MemoryLimitExceeded) as first:
                await client.factorize(pipe_small)
            assert first.value.limit == limit
            assert first.value.requested > 0
            assert await client.ping()
            assert len(server.cache) == 0
            assert not server.cache._pending
            with pytest.raises(MemoryLimitExceeded) as second:
                await client.factorize(pipe_small)
            assert second.value.limit == limit
            assert second.value.requested > 0
            stats = await client.stats()
            assert stats["cache"]["misses"] == 2
            assert stats["cache"]["hits"] == 0
            assert stats["cache"]["builds"] == 0
            assert stats["cache"]["entries"] == 0
            assert not server.cache._pending

        run_with_server(SolverConfig(memory_limit=limit, **CONFIG_KW), body)


class TestReconnect:
    def test_client_survives_a_server_restart(self, pipe_small,
                                              monkeypatch):
        """Kill the server, bring a new one up on the same socket: the
        client reconnects with backoff and the request succeeds."""
        monkeypatch.setattr("repro.serving.client.DEFAULT_BACKOFF_BASE",
                            0.01)

        async def main():
            socket_path = short_socket_path()
            first = SolverServer(SolverConfig(**CONFIG_KW),
                                 socket_path=socket_path)
            await first.start()
            client = await ServingClient.connect(socket_path)
            try:
                assert await client.ping()
                await first.stop()  # connection drops under the client
                second = SolverServer(SolverConfig(**CONFIG_KW),
                                      socket_path=socket_path)
                await second.start()
                try:
                    # transparently reconnects to the restarted server
                    assert await client.ping()
                    x_v, x_s = await client.solve_system(pipe_small)
                    assert pipe_small.relative_error(x_v, x_s) < 1e-3
                finally:
                    await second.stop()
            finally:
                await client.close()

        asyncio.run(main())

    def test_retries_exhausted_raises(self, pipe_small, monkeypatch):
        """No server comes back: bounded retries, then the failure
        propagates instead of looping forever."""
        monkeypatch.setattr("repro.serving.client.DEFAULT_RETRIES", 2)
        monkeypatch.setattr("repro.serving.client.DEFAULT_BACKOFF_BASE",
                            0.01)

        async def main():
            server = SolverServer(SolverConfig(**CONFIG_KW),
                                  socket_path=short_socket_path())
            await server.start()
            client = await ServingClient.connect(server.socket_path)
            try:
                assert await client.ping()
                await server.stop()
                with pytest.raises((ConnectionLostError, OSError)):
                    await client.ping()
            finally:
                await client.close()

        asyncio.run(main())

    def test_stop_with_solves_blocked_in_the_executor(self, pipe_small,
                                                      monkeypatch):
        """Stop the server while solves from two clients are held in the
        executor: stop waits for them, every call ends within a bound with
        its answer or a typed error (never a hang), and the stopped
        server's cache reads zero."""
        from repro.core import CoupledFactorization

        bound = 30.0
        scales = [1.0, -2.0, 0.5, 3.0]
        release = threading.Event()
        solve = CoupledFactorization.solve

        def held_solve(self, b_v, b_s, refinement_steps=0):
            release.wait(bound)
            return solve(self, b_v, b_s, refinement_steps)

        async def main():
            server = SolverServer(SolverConfig(**CONFIG_KW),
                                  socket_path=short_socket_path())
            await server.start()
            clients = [await ServingClient.connect(server.socket_path)
                       for _ in range(2)]
            try:
                key = (await clients[0].factorize(pipe_small)).key
                fact = server.cache.lookup(key)
                direct = [fact.solve(s * pipe_small.b_v, s * pipe_small.b_s)
                          for s in scales]
                monkeypatch.setattr(CoupledFactorization, "solve",
                                    held_solve)
                calls = [
                    asyncio.ensure_future(clients[i % 2].solve(
                        key, s * pipe_small.b_v, s * pipe_small.b_s))
                    for i, s in enumerate(scales)
                ]
                while (await clients[0].stats())["pending_solves"] < len(
                        scales):
                    await asyncio.sleep(0.01)
                stopping = asyncio.ensure_future(server.stop())
                await asyncio.sleep(0.1)
                assert not stopping.done()  # it waits for the held solves
                release.set()
                await asyncio.wait_for(stopping, timeout=bound)
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*calls, return_exceptions=True),
                    timeout=bound,
                )
                for (d_v, d_s), outcome in zip(direct, outcomes):
                    if isinstance(outcome, BaseException):
                        assert isinstance(
                            outcome, (ConnectionLostError, ServingError)
                        ), repr(outcome)
                    else:
                        np.testing.assert_array_equal(outcome[0], d_v)
                        np.testing.assert_array_equal(outcome[1], d_s)
                assert server.cache.tracker.in_use == 0
            finally:
                release.set()
                for client in clients:
                    await client.close()
                await server.stop()

        asyncio.run(main())


class TestCli:
    def test_runner_serve_smoke(self, pipe_small):
        """`python -m repro.runner serve` accepts a connection end-to-end."""
        socket_path = short_socket_path()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.runner", "serve",
             "--socket", socket_path, "--cache-budget", str(1 << 30)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 60
            while not os.path.exists(socket_path):
                assert proc.poll() is None, proc.stdout.read().decode()
                assert time.monotonic() < deadline, "server never bound"
                time.sleep(0.05)

            async def drive():
                client = await ServingClient.connect(socket_path)
                assert await client.ping()
                stats = await client.stats()
                assert stats["cache"]["budget_bytes"] == 1 << 30
                x_v, x_s = await client.solve_system(pipe_small)
                assert pipe_small.relative_error(x_v, x_s) < 1e-3
                await client.shutdown_server()
                await client.close()

            asyncio.run(drive())
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover - failure path
                proc.kill()
                proc.wait()

    def test_configuration_table_lists_exactly_the_serve_flags(self):
        """``docs/serving.md`` § Configuration has one row per flag of the
        ``serve`` subcommand, in order, and no row for a flag it lacks."""
        import argparse

        from repro.runner.__main__ import build_parser

        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        flags = [opt for action in subparsers.choices["serve"]._actions
                 for opt in action.option_strings
                 if opt.startswith("--") and opt != "--help"]
        doc = (Path(__file__).parent.parent / "docs" / "serving.md"
               ).read_text()
        table = doc.split("## Configuration")[1].split("\n## ")[0]
        rows = re.findall(r"^\| `(--[\w-]+)` \|", table, flags=re.MULTILINE)
        assert rows == flags, (
            f"docs/serving.md rows without a flag: "
            f"{sorted(set(rows) - set(flags))}; "
            f"flags without a row: {sorted(set(flags) - set(rows))}"
        )
