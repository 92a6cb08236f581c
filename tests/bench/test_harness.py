"""Unit tests for the benchmark harness itself (small parameters)."""

import pytest

import repro
from repro.bench.harness import (
    measure_allreduce_latency,
    measure_lock_isolation,
    measure_message_modes,
    measure_pending_tasks_latency,
    measure_poll_overhead_latency,
    measure_request_query_overhead,
    measure_task_class_latency,
)
from repro.bench.workloads import DummyTaskBatch
from repro.util.clock import VirtualClock
from repro.util.stats import LatencyRecorder


class TestDummyTaskBatch:
    def test_all_tasks_complete(self, proc):
        batch = DummyTaskBatch(proc, 5, base_delay=100e-6, window=100e-6)
        rec = batch.start().drive()
        assert batch.done
        assert rec.count == 5
        assert rec.min >= 0.0

    def test_latency_measured_from_finish_time(self, proc):
        batch = DummyTaskBatch(proc, 1, base_delay=200e-6, window=0.0)
        rec = batch.start().drive()
        # drive() spins, so the observation happens shortly after finish
        assert 0.0 <= rec.mean < 5e-3

    def test_shared_recorder(self, proc):
        rec = LatencyRecorder()
        DummyTaskBatch(proc, 3, recorder=rec).start().drive()
        DummyTaskBatch(proc, 2, recorder=rec).start().drive()
        assert rec.count == 5

    def test_seed_reproducibility(self, proc):
        a = DummyTaskBatch(proc, 4, seed=1)
        b = DummyTaskBatch(proc, 4, seed=1)
        deltas_a = [t - a._finish_times[0] for t in a._finish_times]
        deltas_b = [t - b._finish_times[0] for t in b._finish_times]
        assert deltas_a == pytest.approx(deltas_b, abs=1e-9)

    @staticmethod
    def _virtual_mean_latency(poll_delay, seeds):
        """Mean completion latency of 4-task batches on virtual-clock
        procs: exact, independent of host speed.  Each empty pass steps
        the clock 1us so a ``poll_delay=0`` batch also reaches its
        finish times."""
        rec = LatencyRecorder()
        for seed in seeds:
            p = repro.init(clock=VirtualClock())
            batch = DummyTaskBatch(
                p, 4, poll_delay=poll_delay, base_delay=100e-6, seed=seed,
                recorder=rec,
            ).start()
            while not batch.done:
                p.stream_progress()
                p.clock.advance(1e-6)
            p.finalize()
        return rec.mean

    def test_poll_delay_slows_response(self):
        # A single 4-task draw spans ~15-150us of mean latency with the
        # delay on, so the batches of eight consecutive seeds are pooled.
        seeds = range(8)
        slow = self._virtual_mean_latency(100e-6, seeds)
        fast = self._virtual_mean_latency(0.0, seeds)
        # every pass polls each pending task for 100us before re-checking
        assert slow > 50e-6
        assert slow > fast


class TestHarnessSmoke:
    """Every measure_* runs with tiny parameters and returns sane data."""

    def test_pending_tasks(self):
        series = measure_pending_tasks_latency([1, 4], repeats=1)
        assert series.xs() == [1, 4]
        assert all(v >= 0 for v in series.means_us())

    def test_poll_overhead(self):
        series = measure_poll_overhead_latency([0, 5], num_tasks=3, repeats=1)
        assert series.xs() == [0, 5]

    def test_task_class(self):
        series = measure_task_class_latency([1, 8], repeats=1)
        assert series.xs() == [1, 8]
        assert all(v >= 0 for v in series.medians_us())

    def test_request_query(self):
        series = measure_request_query_overhead([1, 16], num_tasks=3, repeats=1)
        assert series.xs() == [1, 16]

    def test_message_modes_rows(self):
        rows = measure_message_modes([16, 100_000])
        assert rows[0]["mode"] == "buffered"
        assert rows[1]["mode"] == "rendezvous"
        assert rows[1]["one_way_us"] > rows[0]["one_way_us"]

    def test_allreduce_latency(self):
        native, user = measure_allreduce_latency(
            [2], iters=3, warmup=1, config=repro.RuntimeConfig(use_shmem=False)
        )
        assert native.point(2).count == 3
        assert user.point(2).count == 3

    def test_lock_isolation(self):
        res = measure_lock_isolation(hold_seconds=1e-3, repeats=2)
        assert res["same_stream"].median > 0.4e-3
        assert res["other_stream"].median < res["same_stream"].median


class TestFiguresDriver:
    def test_quick_report(self, tmp_path):
        from repro.bench.figures import main

        out = tmp_path / "report.txt"
        assert main(["--quick", "--output", str(out)]) == 0
        text = out.read_text()
        assert "Figure 1" in text
        assert "Figure 13" in text
        assert "Figure 9 / 11" in text
