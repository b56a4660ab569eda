"""Unit and property tests for the logical memory tracker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import MemoryTracker, fmt_bytes
from repro.utils.errors import MemoryLimitExceeded


class TestBasicAccounting:
    def test_allocate_and_free(self):
        t = MemoryTracker()
        a = t.allocate(1000)
        assert t.in_use == 1000
        a.free()
        assert t.in_use == 0
        assert t.peak == 1000

    def test_peak_tracks_high_water_mark(self):
        t = MemoryTracker()
        a = t.allocate(100)
        b = t.allocate(300)
        a.free()
        c = t.allocate(50)
        assert t.peak == 400
        assert t.in_use == 350
        b.free()
        c.free()

    def test_double_free_is_noop(self):
        t = MemoryTracker()
        a = t.allocate(10)
        a.free()
        a.free()
        assert t.in_use == 0

    def test_track_array_uses_nbytes(self):
        t = MemoryTracker()
        arr = np.zeros((10, 10))
        a = t.track_array(arr)
        assert a.nbytes == arr.nbytes == 800
        a.free()

    def test_n_allocations_counter(self):
        t = MemoryTracker()
        for _ in range(5):
            t.allocate(1).free()
        assert t.n_allocations == 5

    def test_zero_byte_allocation_allowed(self):
        t = MemoryTracker()
        a = t.allocate(0)
        assert t.in_use == 0
        a.free()

    def test_negative_allocation_rejected(self):
        t = MemoryTracker()
        with pytest.raises(ValueError):
            t.allocate(-1)


class TestCategories:
    def test_category_breakdown(self):
        t = MemoryTracker()
        a = t.allocate(100, category="factors")
        b = t.allocate(50, category="workspace")
        assert t.category_in_use("factors") == 100
        assert t.category_in_use("workspace") == 50
        assert t.categories == {"factors": 100, "workspace": 50}
        a.free()
        assert t.category_in_use("factors") == 0
        assert t.category_peak("factors") == 100
        b.free()

    def test_peak_categories_are_per_category(self):
        t = MemoryTracker()
        a = t.allocate(100, category="x")
        a.free()
        b = t.allocate(60, category="y")
        # per-category peaks are independent of global interleaving
        assert t.category_peak("x") == 100
        assert t.category_peak("y") == 60
        b.free()


class TestLimit:
    def test_limit_enforced(self):
        t = MemoryTracker(limit_bytes=100)
        a = t.allocate(80)
        with pytest.raises(MemoryLimitExceeded) as exc:
            t.allocate(30, label="too big")
        assert exc.value.requested == 30
        assert exc.value.in_use == 80
        assert exc.value.limit == 100
        assert "too big" in str(exc.value)
        a.free()

    def test_failed_allocation_does_not_leak(self):
        t = MemoryTracker(limit_bytes=100)
        a = t.allocate(80)
        with pytest.raises(MemoryLimitExceeded):
            t.allocate(30)
        assert t.in_use == 80
        a.free()

    def test_exact_fit_allowed(self):
        t = MemoryTracker(limit_bytes=100)
        a = t.allocate(100)
        a.free()

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            MemoryTracker(limit_bytes=0)


class TestResizeAndBorrow:
    def test_resize_up_and_down(self):
        t = MemoryTracker()
        a = t.allocate(100, category="s")
        a.resize(250)
        assert t.in_use == 250
        a.resize(50)
        assert t.in_use == 50
        assert t.peak == 250
        a.free()
        assert t.in_use == 0

    def test_resize_respects_limit(self):
        t = MemoryTracker(limit_bytes=200)
        a = t.allocate(100)
        with pytest.raises(MemoryLimitExceeded):
            a.resize(300)
        a.free()

    def test_resize_freed_allocation_raises(self):
        t = MemoryTracker()
        a = t.allocate(10)
        a.free()
        with pytest.raises(RuntimeError):
            a.resize(20)

    def test_borrow_frees_on_exit(self):
        t = MemoryTracker()
        with t.borrow(500):
            assert t.in_use == 500
        assert t.in_use == 0

    def test_borrow_frees_on_exception(self):
        t = MemoryTracker()
        with pytest.raises(RuntimeError):
            with t.borrow(500):
                raise RuntimeError("boom")
        assert t.in_use == 0


class TestReporting:
    def test_assert_all_freed_raises_on_leak(self):
        t = MemoryTracker(name="leaky")
        a = t.allocate(10, category="oops")
        with pytest.raises(AssertionError, match="oops"):
            t.assert_all_freed()
        a.free()

    def test_report_mentions_categories(self):
        t = MemoryTracker(name="r")
        a = t.allocate(2048, category="factors")
        text = t.report()
        assert "factors" in text
        assert "2.00 KiB" in text
        a.free()

    def test_reset_peak(self):
        t = MemoryTracker()
        a = t.allocate(100)
        a.free()
        t.reset_peak()
        assert t.peak == 0


class TestFmtBytes:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, "0 B"),
            (512, "512 B"),
            (2048, "2.00 KiB"),
            (5 * 1024**2, "5.00 MiB"),
            (3 * 1024**3, "3.00 GiB"),
            (2 * 1024**4, "2.00 TiB"),
        ],
    )
    def test_formatting(self, value, expected):
        assert fmt_bytes(value) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 10_000), st.booleans()), min_size=1,
        max_size=40,
    )
)
def test_property_in_use_equals_sum_of_live(ops):
    """Random alloc/free interleavings keep in_use == sum of live sizes."""
    t = MemoryTracker()
    live = []
    for size, do_free in ops:
        live.append(t.allocate(size))
        if do_free and live:
            idx = size % len(live)
            live[idx].free()
            live = [a for a in live if a.live]
    assert t.in_use == sum(a.nbytes for a in live)
    for a in live:
        a.free()
    t.assert_all_freed()


class TestAcquire:
    """Budget-aware admission control (the parallel runtime's allocator)."""

    def test_acquire_behaves_like_allocate_without_contention(self):
        t = MemoryTracker(limit_bytes=100)
        a = t.acquire(60, category="panel")
        assert t.in_use == 60
        assert t.category_in_use("panel") == 60
        a.free()
        t.assert_all_freed()

    def test_first_acquisition_raises_like_serial(self):
        # with no other acquisition outstanding there is nothing to wait
        # for: an oversized request must raise, exactly like allocate()
        t = MemoryTracker(limit_bytes=100)
        with pytest.raises(MemoryLimitExceeded):
            t.acquire(150)
        t.assert_all_freed()

    def test_acquire_blocks_until_budget_frees(self):
        import threading

        t = MemoryTracker(limit_bytes=100)
        first = t.acquire(80)
        admitted = threading.Event()

        def second():
            b = t.acquire(80)
            admitted.set()
            b.free()

        worker = threading.Thread(target=second)
        worker.start()
        assert not admitted.wait(0.05)  # blocked while `first` holds 80
        first.free()
        assert admitted.wait(2.0)
        worker.join()
        t.assert_all_freed()
        assert t.peak <= 100
        assert t.admission_wait_seconds > 0.0

    def test_nonblocking_acquire_raises_under_contention(self):
        t = MemoryTracker(limit_bytes=100)
        first = t.acquire(80)
        with pytest.raises(MemoryLimitExceeded):
            t.acquire(80, block=False)
        first.free()
        t.assert_all_freed()

    def test_headroom_gates_admission_without_being_charged(self):
        t = MemoryTracker(limit_bytes=100)
        a = t.acquire(30, headroom=50)
        assert t.in_use == 30  # the reservation itself is never charged
        # 30 used + 50 reserved + 30 requested > 100: contended
        with pytest.raises(MemoryLimitExceeded):
            t.acquire(30, block=False)
        # ...but the holder's own nested charge fits inside the reservation
        with t.borrow(50):
            assert t.in_use == 80
        a.free()
        t.assert_all_freed()

    def test_negative_headroom_rejected(self):
        with pytest.raises(ValueError):
            MemoryTracker().acquire(10, headroom=-1)

    def test_racing_frees_account_exactly_once(self):
        """Hammer the free() double-free guard: N threads racing ``free()``
        on the same allocations must uncharge each exactly once.

        Regression for the non-atomic check-then-act on ``Allocation._live``
        — a double uncharge either trips the underflow guard or corrupts
        ``in_use``, both of which this asserts against.
        """
        import threading

        t = MemoryTracker()
        base = t.allocate(1_000, category="base")
        errors = []
        for _round in range(25):
            allocs = [t.allocate(100, category="panel") for _ in range(8)]
            barrier = threading.Barrier(4)

            def racer():
                try:
                    barrier.wait()
                    for a in allocs:  # noqa: B023 - rebound each round
                        a.free()
                except BaseException as exc:  # pragma: no cover - failure
                    errors.append(exc)

            threads = [threading.Thread(target=racer) for _ in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert not errors, errors
            # exact accounting: every 100 B panel uncharged exactly once
            assert t.in_use == 1_000
            assert t.category_in_use("panel") == 0
        base.free()
        t.assert_all_freed()

    def test_concurrent_acquire_free_stays_consistent(self):
        import threading

        t = MemoryTracker(limit_bytes=1000)
        errors = []

        def worker(seed):
            try:
                for i in range(50):
                    a = t.acquire(1 + (seed * 31 + i) % 200)
                    a.resize(a.nbytes // 2)
                    a.free()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        assert t.peak <= 1000
        t.assert_all_freed()


class TestUnderflowGuard:
    def test_release_more_than_charged_raises(self):
        t = MemoryTracker()
        a = t.allocate(100, category="a")
        with pytest.raises(AssertionError, match="underflow"):
            t._uncharge(150, "a")
        a.free()

    def test_category_mismatch_raises(self):
        # a charge recorded under one category must not be released
        # from another, even when the total would stay non-negative
        t = MemoryTracker()
        a = t.allocate(100, category="a")
        with pytest.raises(AssertionError, match="underflow"):
            t._uncharge(50, "b")
        a.free()

    def test_failed_release_leaves_state_untouched(self):
        t = MemoryTracker()
        a = t.allocate(100, category="a")
        with pytest.raises(AssertionError):
            t._uncharge(150, "a")
        assert t.in_use == 100
        assert t.category_in_use("a") == 100
        a.free()
        t.assert_all_freed()
