"""WindowAssembler: the strict per-switch stream protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.records import CoarseRecord, records_from_telemetry
from repro.serve.windows import StreamProtocolError, WindowAssembler
from repro.telemetry.sampling import sample_trace

INTERVAL = 25
WINDOW_INTERVALS = 4


def _record(switch_id: str, index: int, queues: int = 4, ports: int = 2):
    return CoarseRecord(
        switch_id=switch_id,
        interval_index=index,
        qlen_sample=np.zeros(queues),
        qlen_max=np.ones(queues),
        received=np.zeros(ports),
        sent=np.zeros(ports),
        dropped=np.zeros(ports),
    )


@pytest.fixture()
def assembler(serve_config):
    return WindowAssembler(serve_config, INTERVAL, WINDOW_INTERVALS)


class TestProtocol:
    def test_windows_emit_every_window_intervals(self, assembler):
        emitted = []
        for i in range(3 * WINDOW_INTERVALS):
            emitted.extend(assembler.push(_record("sw0", i)))
        assert [t.window_index for t in emitted] == [0, 1, 2]
        assert [t.start_interval for t in emitted] == [0, 4, 8]
        assert all(t.switch_id == "sw0" for t in emitted)
        assert all(t.telemetry.num_intervals == WINDOW_INTERVALS for t in emitted)

    def test_gap_raises(self, assembler):
        assembler.push(_record("sw0", 0))
        with pytest.raises(StreamProtocolError, match="gap"):
            assembler.push(_record("sw0", 2))

    def test_duplicate_raises(self, assembler):
        assembler.push(_record("sw0", 0))
        with pytest.raises(StreamProtocolError, match="duplicate or out-of-order"):
            assembler.push(_record("sw0", 0))

    def test_out_of_order_raises(self, assembler):
        for i in range(3):
            assembler.push(_record("sw0", i))
        with pytest.raises(StreamProtocolError, match="expected interval 3, got 1"):
            assembler.push(_record("sw0", 1))

    def test_streams_are_independent_per_switch(self, assembler):
        # sw1 starting from 0 while sw0 is mid-window is fine.
        for i in range(3):
            assembler.push(_record("sw0", i))
        assert assembler.push(_record("sw1", 0)) == []
        assert assembler.num_switches == 2
        assert assembler.pending_intervals("sw0") == 3
        assert assembler.pending_intervals("sw1") == 1
        assert assembler.pending_intervals("never-seen") == 0

    def test_shape_mismatch_raises_before_mutating(self, assembler):
        bad = _record("sw0", 0, queues=3)
        with pytest.raises(ValueError, match="per-queue"):
            assembler.push(bad)
        # State unchanged: the correct record 0 is still accepted.
        assert assembler.push(_record("sw0", 0)) == []

    def test_stride_larger_than_window_is_rejected(self, serve_config):
        with pytest.raises(ValueError, match="stride_intervals > window_intervals"):
            WindowAssembler(serve_config, INTERVAL, 4, stride_intervals=5)


class TestOverlappingStride:
    def test_stride_2_emits_overlapping_windows(self, serve_config):
        assembler = WindowAssembler(serve_config, INTERVAL, 4, stride_intervals=2)
        emitted = []
        for i in range(8):
            emitted.extend(assembler.push(_record("sw0", i)))
        assert [t.start_interval for t in emitted] == [0, 2, 4]


class TestSampleConstruction:
    @pytest.mark.parametrize(
        "stride", [WINDOW_INTERVALS, 1], ids=["non_overlapping", "sliding"]
    )
    def test_task_sample_matches_offline_window(
        self, serve_config, fleet_traces, stride
    ):
        # The assembled sample must be field-for-field bit-identical to
        # the offline build_dataset window (ex the unknown target), both
        # for the service's non-overlapping layout and for a window that
        # slides one interval per record.
        from repro.telemetry.dataset import build_dataset

        trace = fleet_traces["sw0"]
        telemetry = sample_trace(trace, INTERVAL)
        dataset = build_dataset(
            trace,
            interval=INTERVAL,
            window_intervals=WINDOW_INTERVALS,
            stride_intervals=stride,
        )
        assembler = WindowAssembler(
            serve_config, INTERVAL, WINDOW_INTERVALS, stride_intervals=stride
        )
        tasks = []
        for record in records_from_telemetry("sw0", telemetry):
            tasks.extend(assembler.push(record))
        assert len(tasks) == len(dataset.samples)
        for task, offline in zip(tasks, dataset.samples):
            sample = task.sample(dataset.scaler, serve_config.num_queues)
            assert np.array_equal(sample.features, offline.features)
            assert np.array_equal(sample.m_max, offline.m_max)
            assert np.array_equal(sample.m_sample, offline.m_sample)
            assert np.array_equal(sample.m_sent, offline.m_sent)
            assert np.array_equal(sample.m_dropped, offline.m_dropped)
            assert np.array_equal(sample.m_received, offline.m_received)
            assert np.array_equal(sample.sample_positions, offline.sample_positions)
            assert sample.interval == offline.interval
            assert sample.window_start == offline.window_start
            assert not sample.target.any()  # placeholder, unknown at serve time
