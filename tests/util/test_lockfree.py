"""Lock-free SPSC structures and sharded counters.

The differential property here is the load-bearing one: the locked
:class:`tests.util.ringbuf.RingBuffer` is the executable specification,
and :class:`repro.util.lockfree.SpscRing` must agree with it on
arbitrary push/pop interleavings.
"""

import threading
import time

import pytest
from hypothesis import given, strategies as st

from repro.util.lockfree import (
    ShardedCounter,
    SpscQueue,
    SpscRing,
    is_free_threaded,
)
from tests.util.ringbuf import RingBuffer


class TestSpscRing:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SpscRing(0)
        with pytest.raises(ValueError):
            SpscRing(-1)

    def test_fifo_order(self):
        ring = SpscRing(4)
        for i in range(4):
            assert ring.try_push(i)
        assert [ring.try_pop() for _ in range(4)] == [0, 1, 2, 3]

    def test_full_and_empty(self):
        ring = SpscRing(2)
        assert ring.empty() and not ring.full()
        ring.try_push("a")
        ring.try_push("b")
        assert ring.full()
        assert ring.try_push("c") is False
        ring.try_pop()
        assert not ring.full()

    def test_non_power_of_two_capacity(self):
        # Internal storage rounds up to a power of two; the advertised
        # capacity (and backpressure point) must stay what was asked.
        ring = SpscRing(3)
        assert ring.capacity == 3
        assert ring.try_push(1) and ring.try_push(2) and ring.try_push(3)
        assert ring.try_push(4) is False
        assert len(ring) == 3

    def test_pop_empty_returns_none(self):
        assert SpscRing(1).try_pop() is None

    def test_peek(self):
        ring = SpscRing(2)
        assert ring.peek() is None
        ring.try_push(10)
        assert ring.peek() == 10
        assert len(ring) == 1  # peek does not consume

    def test_wraparound(self):
        ring = SpscRing(3)
        for i in range(100):
            assert ring.try_push(i)
            assert ring.try_pop() == i
        assert ring.empty()

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers()), max_size=80
        ),
        st.integers(min_value=1, max_value=9),
    )
    def test_differential_vs_locked_ring(self, ops, cap):
        """SpscRing and the locked RingBuffer agree on every
        interleaving of pushes and pops (same accepts, same pops, same
        occupancy) — the locked ring is the reference implementation."""
        lockfree = SpscRing(cap)
        locked = RingBuffer(cap)
        for is_push, value in ops:
            if is_push:
                assert lockfree.try_push(value) == locked.try_push(value)
            else:
                assert lockfree.try_pop() == locked.try_pop()
            assert len(lockfree) == len(locked)
            assert lockfree.empty() == locked.empty()
            assert lockfree.full() == locked.full()
        # Drain both: remaining contents identical.
        while (v := locked.try_pop()) is not None:
            assert lockfree.try_pop() == v
        assert lockfree.try_pop() is None

    def test_spsc_stress(self):
        ring = SpscRing(8)
        n = 20_000
        received = []

        # A failed push/pop yields (sleep(0)) instead of spinning: a
        # spinning thread would hold the GIL for a whole switch interval
        # every time the 8-slot ring fills or empties.
        def producer():
            i = 0
            while i < n:
                if ring.try_push(i):
                    i += 1
                else:
                    time.sleep(0)

        def consumer():
            while len(received) < n:
                v = ring.try_pop()
                if v is not None:
                    received.append(v)
                else:
                    time.sleep(0)

        tp = threading.Thread(target=producer)
        tc = threading.Thread(target=consumer)
        tp.start(), tc.start()
        tp.join(30), tc.join(30)
        assert not tp.is_alive(), "producer timed out"
        assert not tc.is_alive(), "consumer timed out"
        assert received == list(range(n))


class TestSpscQueue:
    def test_fifo_and_counters(self):
        q = SpscQueue()
        for i in range(5):
            q.push(i)
        assert q.pushed == 5 and q.popped == 0 and len(q) == 5
        assert [q.try_pop() for _ in range(5)] == [0, 1, 2, 3, 4]
        assert q.popped == 5 and len(q) == 0
        assert q.try_pop() is None

    def test_peek_and_bool(self):
        q = SpscQueue()
        assert not q and q.peek() is None
        q.push("x")
        assert q and q.peek() == "x"
        assert len(q) == 1  # peek does not consume

    def test_unbounded(self):
        q = SpscQueue()
        n = 10_000
        for i in range(n):
            q.push(i)
        assert len(q) == n
        for i in range(n):
            assert q.try_pop() == i

    def test_spsc_stress(self):
        q = SpscQueue()
        n = 20_000
        received = []

        def producer():
            for i in range(n):
                q.push(i)

        def consumer():
            while len(received) < n:
                v = q.try_pop()
                if v is not None:
                    received.append(v)

        tp = threading.Thread(target=producer)
        tc = threading.Thread(target=consumer)
        tp.start(), tc.start()
        tp.join(30), tc.join(30)
        assert received == list(range(n))
        assert q.pushed == q.popped == n


class TestShardedCounter:
    def test_single_thread_exact(self):
        c = ShardedCounter()
        for _ in range(100):
            c.add(1)
        c.add(-25)
        assert c.value() == 75
        assert int(c) == 75
        assert c == 75  # int comparison support

    def test_comparisons(self):
        c = ShardedCounter()
        c.add(3)
        assert c > 2 and c >= 3 and c < 4 and c <= 3
        assert c == 3 and not (c == 4)
        d = ShardedCounter()
        d.add(3)
        assert c == d

    def test_multi_thread_exact_total(self):
        """A4: ``+=`` from many threads loses updates; sharded adds do
        not — the aggregated total is exact after join."""
        c = ShardedCounter()
        n_threads, bumps = 8, 5_000

        def worker():
            for _ in range(bumps):
                c.add(1)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert c.value() == n_threads * bumps
        assert len(list(c.shards())) == n_threads


class TestFreeThreadedDetection:
    def test_returns_bool(self):
        assert isinstance(is_free_threaded(), bool)

    def test_false_on_gil_build(self):
        import sys

        if not hasattr(sys, "_is_gil_enabled"):
            assert is_free_threaded() is False
