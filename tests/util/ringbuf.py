"""Bounded ring buffer: the locked reference implementation.

The shmem transport's cell rings run on
:class:`repro.util.lockfree.SpscRing`.  This locked ring is kept only as
its executable specification: the hypothesis differential property in
``tests/util/test_lockfree.py`` asserts the two agree on arbitrary
push/pop interleavings.
"""

from __future__ import annotations

import threading
from typing import Generic, TypeVar

__all__ = ["RingBuffer"]

T = TypeVar("T")


class RingBuffer(Generic[T]):
    """Fixed-capacity FIFO with non-blocking try semantics.

    Thread-safe for any number of producers/consumers; the shmem
    transport uses it single-producer/single-consumer per direction.
    """

    __slots__ = ("_capacity", "_items", "_head", "_count", "_lock")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._items: list[T | None] = [None] * capacity
        self._head = 0  # index of the oldest element
        self._count = 0
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return self._count

    def empty(self) -> bool:
        return self._count == 0

    def full(self) -> bool:
        return self._count == self._capacity

    def try_push(self, item: T) -> bool:
        """Append ``item``; returns False (without blocking) when full."""
        with self._lock:
            if self._count == self._capacity:
                return False
            tail = (self._head + self._count) % self._capacity
            self._items[tail] = item
            self._count += 1
            return True

    def try_pop(self) -> T | None:
        """Remove and return the oldest item, or None when empty.

        Note: None is therefore not a valid element type.
        """
        with self._lock:
            if self._count == 0:
                return None
            item = self._items[self._head]
            self._items[self._head] = None
            self._head = (self._head + 1) % self._capacity
            self._count -= 1
            return item

    def peek(self) -> T | None:
        """Return the oldest item without removing it (None when empty)."""
        with self._lock:
            if self._count == 0:
                return None
            return self._items[self._head]
