"""Bounded ring buffer: FIFO order, capacity, SPSC stress."""

import threading
import time

import pytest
from hypothesis import given, strategies as st

from tests.util.ringbuf import RingBuffer


class TestRingBuffer:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RingBuffer(0)
        with pytest.raises(ValueError):
            RingBuffer(-1)

    def test_fifo_order(self):
        ring = RingBuffer(4)
        for i in range(4):
            assert ring.try_push(i)
        assert [ring.try_pop() for _ in range(4)] == [0, 1, 2, 3]

    def test_full_and_empty(self):
        ring = RingBuffer(2)
        assert ring.empty() and not ring.full()
        ring.try_push("a")
        ring.try_push("b")
        assert ring.full()
        assert ring.try_push("c") is False
        ring.try_pop()
        assert not ring.full()

    def test_pop_empty_returns_none(self):
        assert RingBuffer(1).try_pop() is None

    def test_peek(self):
        ring = RingBuffer(2)
        assert ring.peek() is None
        ring.try_push(10)
        assert ring.peek() == 10
        assert len(ring) == 1  # peek does not consume

    def test_wraparound(self):
        ring = RingBuffer(3)
        for i in range(10):
            assert ring.try_push(i)
            assert ring.try_pop() == i
        assert ring.empty()

    @given(st.lists(st.integers(), max_size=50), st.integers(min_value=1, max_value=8))
    def test_push_pop_sequence_preserves_order(self, items, cap):
        ring = RingBuffer(cap)
        accepted = []
        for item in items:
            if ring.try_push(item):
                accepted.append(item)
        popped = []
        while (v := ring.try_pop()) is not None:
            popped.append(v)
        assert popped == accepted[: len(popped)]
        assert len(popped) == min(len(accepted), cap)

    def test_spsc_stress(self):
        ring = RingBuffer(8)
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
