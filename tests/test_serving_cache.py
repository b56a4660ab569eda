"""Tests for the serving layer's numeric-factor cache.

Covers the ISSUE-8 cache contract: system fingerprints that track
values (not just patterns), exactly-once construction under concurrent
misses, LRU eviction order, exact tracker charging/releasing under the
``factor_cache`` category, and byte-identical solutions between a
cache-hit and a cache-miss path.  The module-level watchdog fixture
(see ``conftest.py``) verifies lock ordering around every test.
"""

import pickle
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import CoupledFactorization, SolverConfig
from repro.serving import (
    FACTOR_CACHE_CATEGORY,
    FactorCache,
    config_fingerprint_fields,
    system_fingerprint,
)
from repro.serving.factor_cache import pattern_fingerprint
from repro.utils.errors import FactorizationFreed, MemoryLimitExceeded

CONFIG = SolverConfig(dense_backend="hmat", n_c=64)


def build_fact(problem, config=CONFIG):
    return CoupledFactorization(problem, "multi_solve", config)


class TestPatternFingerprint:
    def test_values_do_not_participate(self, pipe_small):
        a = pipe_small.a_vv.tocsr()
        b = a.copy()
        b.data = b.data * 2.0
        assert pattern_fingerprint(a) == pattern_fingerprint(b)

    def test_pattern_change_changes_key(self, pipe_small):
        a = pipe_small.a_vv.tocsr()
        b = a.tolil()
        b[0, a.shape[1] - 1] = 1.0
        b[a.shape[1] - 1, 0] = 1.0
        assert pattern_fingerprint(a) != pattern_fingerprint(b.tocsr())

    def test_index_width_is_canonicalised(self):
        a = sp.eye(8, format="csr")
        b = a.copy()
        b.indptr = b.indptr.astype(np.int64)
        b.indices = b.indices.astype(np.int64)
        assert pattern_fingerprint(a) == pattern_fingerprint(b)


class TestSystemFingerprint:
    def test_stable_across_pickle(self, pipe_small):
        clone = pickle.loads(pickle.dumps(pipe_small))
        assert system_fingerprint(pipe_small, "multi_solve", CONFIG) == \
            system_fingerprint(clone, "multi_solve", CONFIG)

    def test_sensitive_to_values(self, pipe_small):
        clone = pickle.loads(pickle.dumps(pipe_small))
        clone.a_vv.data[0] *= 1.0 + 1e-12
        assert system_fingerprint(pipe_small, "multi_solve", CONFIG) != \
            system_fingerprint(clone, "multi_solve", CONFIG)

    def test_sensitive_to_algorithm_and_config(self, pipe_small):
        base = system_fingerprint(pipe_small, "multi_solve", CONFIG)
        assert base != system_fingerprint(pipe_small, "baseline", CONFIG)
        other = SolverConfig(dense_backend="hmat", n_c=64, epsilon=1e-6)
        assert base != system_fingerprint(pipe_small, "multi_solve", other)

    def test_execution_knobs_do_not_change_the_key(self, pipe_small):
        """Backends/worker counts are bit-identical by contract, so a
        factorization built under one serves requests made under another."""
        base = system_fingerprint(pipe_small, "multi_solve", CONFIG)
        wide = SolverConfig(dense_backend="hmat", n_c=64, n_workers=4,
                            memory_limit=1 << 40)
        assert base == system_fingerprint(pipe_small, "multi_solve", wide)
        fields = config_fingerprint_fields(CONFIG)
        assert "n_workers" not in fields
        assert "memory_limit" not in fields
        assert "epsilon" in fields

    def test_key_moves_exactly_when_the_factor_bytes_do(self, pipe_small):
        """An option's value is its field: spelling a default out is the
        same key (no second build of identical factors), a shorter ``n_S``
        flushes S's accumulators more often, rounds in another order and
        gets its own."""
        from repro.serving.factor_cache import _FINGERPRINT_EXCLUDED_FIELDS

        base = system_fingerprint(pipe_small, "multi_solve", CONFIG)
        assert base == system_fingerprint(
            pipe_small, "multi_solve", CONFIG.with_(n_s_block=2048))
        assert base != system_fingerprint(
            pipe_small, "multi_solve", CONFIG.with_(n_s_block=64))
        execution_only = dict(
            n_workers=2, runtime_backend="process", memory_limit=1 << 40,
        )
        assert set(execution_only) == _FINGERPRINT_EXCLUDED_FIELDS
        assert base == system_fingerprint(
            pipe_small, "multi_solve", CONFIG.with_(**execution_only))


class TestExactlyOnce:
    def test_concurrent_misses_build_once(self, pipe_small):
        cache = FactorCache(max_entries=2)
        builds = []
        build_lock = threading.Lock()
        gate = threading.Barrier(6)

        def build():
            with build_lock:
                builds.append(threading.get_ident())
            return build_fact(pipe_small)

        results = []

        def worker():
            gate.wait()
            results.append(cache.get_or_build("k", build))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1
        entries = {id(r.entry) for r in results}
        assert len(entries) == 1
        assert sum(1 for r in results if not r.hit) == 1
        assert cache.hits == 5 and cache.misses == 1
        cache.clear()
        cache.tracker.assert_all_freed()

    def test_build_failure_propagates_to_waiters(self, pipe_small):
        cache = FactorCache(max_entries=2)
        gate = threading.Barrier(3)
        errors = []

        def build():
            raise ValueError("synthetic build failure")

        def worker():
            gate.wait()
            try:
                cache.get_or_build("bad", build)
            except ValueError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(errors) == 3
        assert len(cache) == 0
        # the key is retryable after a failure
        result = cache.get_or_build("bad", lambda: build_fact(pipe_small))
        assert not result.hit
        cache.clear()
        cache.tracker.assert_all_freed()


class TestLruEviction:
    def test_entry_cap_evicts_lru_order(self, pipe_small):
        cache = FactorCache(max_entries=2)
        cache.get_or_build("a", lambda: build_fact(pipe_small))
        cache.get_or_build("b", lambda: build_fact(pipe_small))
        cache.get_or_build("a", lambda: build_fact(pipe_small))  # touch a
        cache.get_or_build("c", lambda: build_fact(pipe_small))  # evicts b
        assert cache.keys() == ["a", "c"]
        assert cache.lookup("b") is None
        assert cache.evictions == 1
        cache.clear()
        cache.tracker.assert_all_freed()

    def test_budget_evicts_until_admission(self, pipe_small):
        probe = build_fact(pipe_small)
        entry_bytes = probe.peak_bytes
        probe.free()
        # room for exactly two entries (each entry is charged its own
        # peak, which under several workers depends on the schedule: the
        # probe sizes the budget, the entries say what is in use)
        cache = FactorCache(max_entries=8,
                            budget_bytes=int(2.5 * entry_bytes))
        try:
            a = cache.get_or_build("a", lambda: build_fact(pipe_small))
            b = cache.get_or_build("b", lambda: build_fact(pipe_small))
            assert cache.tracker.category_in_use(FACTOR_CACHE_CATEGORY) == (
                a.entry.peak_bytes + b.entry.peak_bytes)
            c = cache.get_or_build("c", lambda: build_fact(pipe_small))
            assert c.evictions == 1
            assert cache.keys() == ["b", "c"]
            assert cache.tracker.category_in_use(FACTOR_CACHE_CATEGORY) == (
                b.entry.peak_bytes + c.entry.peak_bytes)
        finally:
            cache.clear()
        cache.tracker.assert_all_freed()

    def test_oversized_entry_raises_after_evicting_everything(
            self, pipe_small):
        probe = build_fact(pipe_small)
        entry_bytes = probe.peak_bytes
        probe.free()
        cache = FactorCache(max_entries=8,
                            budget_bytes=max(1, entry_bytes // 2))
        with pytest.raises(MemoryLimitExceeded):
            cache.get_or_build("huge", lambda: build_fact(pipe_small))
        assert len(cache) == 0
        cache.tracker.assert_all_freed()

    def test_evicted_entry_is_freed(self, pipe_small):
        cache = FactorCache(max_entries=1)
        first = cache.get_or_build("a", lambda: build_fact(pipe_small))
        cache.get_or_build("b", lambda: build_fact(pipe_small))
        with pytest.raises(FactorizationFreed):
            first.entry.solve(pipe_small.b_v, pipe_small.b_s)
        cache.clear()
        cache.tracker.assert_all_freed()

    def test_tracker_charges_match_entry_peaks_exactly(self, pipe_small):
        cache = FactorCache(max_entries=4)
        r1 = cache.get_or_build("a", lambda: build_fact(pipe_small))
        r2 = cache.get_or_build("b", lambda: build_fact(pipe_small))
        expected = r1.entry.peak_bytes + r2.entry.peak_bytes
        assert cache.tracker.in_use == expected
        assert cache.tracker.category_in_use(
            FACTOR_CACHE_CATEGORY) == expected
        cache.evict("a")
        assert cache.tracker.in_use == r2.entry.peak_bytes
        cache.clear()
        assert cache.tracker.in_use == 0
        cache.tracker.assert_all_freed()


class TestSolutionIdentity:
    def test_hit_and_miss_solutions_are_byte_identical(self, pipe_small):
        """The cached entry must be indistinguishable from a fresh build."""
        cache = FactorCache(max_entries=2)
        miss = cache.get_or_build("k", lambda: build_fact(pipe_small))
        x_miss = miss.entry.solve(pipe_small.b_v, pipe_small.b_s)
        hit = cache.get_or_build("k", lambda: build_fact(pipe_small))
        assert hit.hit
        x_hit = hit.entry.solve(pipe_small.b_v, pipe_small.b_s)
        fresh = build_fact(pipe_small)
        x_fresh = fresh.solve(pipe_small.b_v, pipe_small.b_s)
        fresh.free()
        np.testing.assert_array_equal(x_hit[0], x_miss[0])
        np.testing.assert_array_equal(x_hit[1], x_miss[1])
        np.testing.assert_array_equal(x_hit[0], x_fresh[0])
        np.testing.assert_array_equal(x_hit[1], x_fresh[1])
        cache.clear()
        cache.tracker.assert_all_freed()
