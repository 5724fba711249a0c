"""Campaign telemetry: progress lines, and the one campaign monitor."""

import pytest

from repro.coyote.parallel import ParallelSweep
from repro.coyote.sweep import Sweep
from repro.service.cluster import ClusterDispatcher
from repro.service.service import CampaignService
from repro.telemetry.campaign import (
    COUNTERS,
    CampaignMonitor,
    CampaignProgress,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def make_progress(total=4):
    clock = FakeClock()
    lines = []
    progress = CampaignProgress(total, clock=clock, sink=lines.append)
    return progress, clock, lines


class TestCampaignProgress:
    def test_progress_line_shape(self):
        progress, clock, lines = make_progress(total=4)
        clock.now += 2.0
        line = progress.point_completed({"noc.latency": 2})
        assert line.startswith("sweep: 1/4 points (25%)")
        assert "elapsed 2.0s" in line
        assert "eta 6.0s" in line  # 2s/point * 3 remaining
        assert lines == [line]

    def test_eta_needs_one_completed_point(self):
        progress, _clock, _lines = make_progress()
        assert progress.eta_seconds() is None

    def test_final_point_drops_the_eta(self):
        progress, clock, _lines = make_progress(total=2)
        clock.now += 1.0
        progress.point_completed({})
        clock.now += 1.0
        line = progress.point_completed({})
        assert "2/2 points (100%)" in line
        assert "eta" not in line

    def test_failures_are_counted_and_named(self):
        progress, clock, _lines = make_progress(total=3)
        clock.now += 1.0
        progress.point_completed({"noc.latency": 2})
        clock.now += 1.0
        line = progress.point_completed({"noc.latency": 7}, failed=True)
        assert "1 failed" in line
        assert "last failure {'noc.latency': 7}" in line

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError, match="total"):
            CampaignProgress(-1)

    def test_logger_sink_by_default(self, caplog):
        import logging
        progress = CampaignProgress(1)
        with caplog.at_level(logging.INFO, "repro.telemetry.campaign"):
            progress.point_completed({})
        assert any("1/1 points" in record.message
                   for record in caplog.records)


class TestCampaignMonitor:
    def test_every_executor_starts_every_counter_at_zero(self, tmp_path):
        executors = [
            ParallelSweep(Sweep(base_cores=2, axes={"noc.latency": [2]})),
            CampaignService(tmp_path / "service"),
            ClusterDispatcher(tmp_path / "cluster"),
        ]
        for executor in executors:
            assert executor.monitor.counters == dict.fromkeys(COUNTERS, 0)

    def test_named_track_spans_and_logged_counts(self):
        clock = FakeClock()
        lines = []
        monitor = CampaignMonitor(clock=clock, sink=lines.append)
        monitor.count("grants", "granted")
        monitor.open_span("a")
        clock.now += 0.5
        monitor.close_span("a", "job[0]", "node n1", "cluster", outcome="ok")
        monitor.close_span("a", "job[0]", "node n1", "cluster")  # closed
        assert monitor.counters["grants"] == 1 and lines == ["granted"]
        assert not monitor.open_spans
        names, span = monitor.chrome_trace()["traceEvents"]
        assert names["args"] == {"name": "node n1"}
        assert (span["tid"], span["dur"]) == (names["tid"], 500000.0)
        assert span["args"] == {"outcome": "ok"}
