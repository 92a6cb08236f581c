"""Utility substrate: clocks, atomics, statistics, tracing."""

from repro.util.atomic import AtomicCounter, AtomicFlag
from repro.util.clock import Clock, MonotonicClock, VirtualClock, busy_wait_until
from repro.util.stats import LatencyRecorder, Series, format_series_table
from repro.util.trace import TraceEvent, Tracer

__all__ = [
    "AtomicCounter",
    "AtomicFlag",
    "Clock",
    "MonotonicClock",
    "VirtualClock",
    "busy_wait_until",
    "LatencyRecorder",
    "Series",
    "format_series_table",
    "TraceEvent",
    "Tracer",
]
