"""The parallel sweep engine: determinism, crash isolation, warm-start.

The headline guarantee under test: a ``workers=N`` campaign produces a
table bit-identical to the ``workers=1`` reference — same settings
order, same metrics, same failure records — even when the campaign
contains a deliberately deadlocking point running under
``on_error="skip"``.
"""

import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.coyote.parallel import (
    ParallelSweep,
    RemoteError,
    WorkerCrash,
    WorkerSet,
    axes_key,
    settings_key,
)
from repro.coyote.sweep import Sweep
from repro.kernels import scalar_matmul, vector_axpy
from repro.resilience import CheckpointError, FaultSpec, ResilienceConfig

DIFFERENTIAL_METRICS = ("cycles", "instructions", "l1d_miss_rate",
                        "raw_stall_cycles")

# Dropping L2-bank responses destroys some core's completion: the point
# provably wedges and the watchdog converts it into a DeadlockError.
WEDGED = ResilienceConfig(
    faults=[FaultSpec(target="l2bank", kind="drop", start=300, end=500,
                      probability=0.5)],
    fault_seed=42, watchdog_cycles=2000)
HEALTHY = ResilienceConfig()


def make_matmul():
    return scalar_matmul(size=6, num_cores=2)


def make_axpy():
    return vector_axpy(length=32, num_cores=2)


def crashing_factory(settings):
    """Settings-aware factory: hard-kills the worker for one point."""
    if settings.get("noc.latency") == 7:
        os._exit(9)
    return scalar_matmul(size=6, num_cores=2)


class TestDifferential:
    def test_parallel_table_bit_identical_with_deadlocking_point(self):
        # 2 axes, 4 points, two of which wedge and trip the watchdog.
        sweep = Sweep(base_cores=2,
                      axes={"resilience": [HEALTHY, WEDGED],
                            "noc.latency": [2, 6]})
        serial = sweep.run(make_matmul, workers=1, on_error="skip")
        fanned = sweep.run(make_matmul, workers=4, on_error="skip")
        assert serial.to_dict(DIFFERENTIAL_METRICS) \
            == fanned.to_dict(DIFFERENTIAL_METRICS)
        kinds = [point.error_kind for point in fanned.points]
        assert kinds.count("DeadlockError") == 2
        assert fanned.workers == 4 and serial.workers == 1

    def test_all_healthy_differential(self):
        sweep = Sweep(base_cores=2, axes={"l2_mode": ["shared", "private"],
                                          "noc.latency": [2, 6]})
        serial = sweep.run(make_axpy, workers=1)
        fanned = sweep.run(make_axpy, workers=2)
        assert serial.to_dict(DIFFERENTIAL_METRICS) \
            == fanned.to_dict(DIFFERENTIAL_METRICS)

    def test_points_stay_in_axis_order(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [6, 2, 4]})
        table = sweep.run(make_axpy, workers=3)
        assert [point.settings["noc.latency"]
                for point in table.points] == [6, 2, 4]


class TestCrashIsolation:
    def test_dead_worker_becomes_failed_point(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2, 7, 6]})
        table = sweep.run(crashing_factory, workers=2, on_error="skip")
        assert [point.failed for point in table.points] \
            == [False, True, False]
        crashed = table.points[1]
        assert crashed.error_kind == "WorkerCrash"
        assert "exit code 9" in str(crashed.error)
        assert crashed.results is None
        assert table.points[0].results is not None
        assert table.points[2].results is not None

    def test_crash_with_on_error_raise_aborts(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [7]})
        with pytest.raises(WorkerCrash):
            sweep.run(crashing_factory, workers=2, on_error="raise")

    def test_remote_error_preserves_kind_across_pickle(self):
        import pickle
        error = RemoteError("DeadlockError", "wedged at cycle 4242")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.kind == "DeadlockError"
        assert str(clone) == "wedged at cycle 4242"


# An executor that starts one worker, waits for it to exit, and is
# SIGKILLed before it can retire the worker and delete its stderr file.
KILLED_EXECUTOR = """
import os, signal
from repro.coyote.parallel import WorkerSet

def done(conn, index, settings, stderr_path):
    conn.close()

worker = WorkerSet("fork").spawn(done, 0, {}, (), state=None)
worker.process.join()
os.kill(os.getpid(), signal.SIGKILL)
"""


class TestStderrCaptures:
    def test_fresh_worker_set_removes_a_killed_executors_files(
            self, tmp_path, monkeypatch):
        src = Path(__file__).resolve().parents[2] / "src"
        child = subprocess.run(
            [sys.executable, "-c", KILLED_EXECUTOR],
            env=dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=str(src)),
            timeout=60)
        assert child.returncode == -signal.SIGKILL
        assert len(list(tmp_path.glob("coyote-worker-*.stderr"))) == 1
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        WorkerSet()
        assert list(tmp_path.glob("coyote-worker-*.stderr")) == []


class TestValidation:
    def test_workers_must_be_positive(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2]})
        with pytest.raises(ValueError, match="workers"):
            ParallelSweep(sweep, workers=0)

    def test_on_error_still_validated(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2]})
        with pytest.raises(ValueError, match="on_error"):
            sweep.run(make_axpy, on_error="ignore", workers=2)


def _counting_factory(settings):
    """Raise if ever called — warm-started campaigns must not call it."""
    raise AssertionError("factory called despite a complete campaign")


class TestCampaignWarmStart:
    AXES = {"l2_mode": ["shared", "private"], "noc.latency": [2, 6]}

    def test_restart_skips_completed_points(self, tmp_path):
        campaign = tmp_path / "axpy.campaign"
        sweep = Sweep(base_cores=2, axes=dict(self.AXES))
        first = sweep.run(make_axpy, workers=2, on_error="skip",
                          campaign_path=campaign)
        assert campaign.exists()
        # Every point is on disk: the rerun must not simulate anything,
        # so a factory that always raises proves the warm start.
        second = sweep.run(_counting_factory, workers=2, on_error="skip",
                           campaign_path=campaign)
        assert first.to_dict(DIFFERENTIAL_METRICS) \
            == second.to_dict(DIFFERENTIAL_METRICS)

    def test_interrupted_campaign_resumes_bit_identical(self, tmp_path):
        # Simulate ctrl-C landing mid-campaign: the factory interrupts
        # after two points; the partial campaign must survive and a
        # warm restart (with a different worker count, even) must
        # produce the uninterrupted reference table bit for bit.
        campaign = tmp_path / "axpy.campaign"
        calls = {"count": 0}

        def interrupting_factory(settings):
            if calls["count"] == 2:
                raise KeyboardInterrupt
            calls["count"] += 1
            return make_axpy()

        sweep = Sweep(base_cores=2, axes=dict(self.AXES))
        with pytest.raises(KeyboardInterrupt):
            sweep.run(interrupting_factory, workers=1, on_error="skip",
                      campaign_path=campaign)
        from repro.resilience import load_campaign
        assert len(load_campaign(campaign, axes_key(self.AXES))) == 2
        resumed = sweep.run(make_axpy, workers=2, on_error="skip",
                            campaign_path=campaign)
        reference = Sweep(base_cores=2, axes=dict(self.AXES)).run(
            make_axpy, workers=1)
        assert resumed.to_dict(DIFFERENTIAL_METRICS) \
            == reference.to_dict(DIFFERENTIAL_METRICS)

    def test_campaign_refuses_mismatched_axes(self, tmp_path):
        campaign = tmp_path / "axpy.campaign"
        Sweep(base_cores=2, axes=dict(self.AXES)).run(
            make_axpy, workers=1, campaign_path=campaign)
        other = Sweep(base_cores=2, axes={"noc.latency": [3, 9]})
        with pytest.raises(CheckpointError, match="different sweep"):
            other.run(make_axpy, workers=1, campaign_path=campaign)

    def test_keys_are_canonical(self):
        assert settings_key({"a": 1, "b": "x"}) == (("a", 1), ("b", "x"))
        assert axes_key({"a": [HEALTHY]}) \
            == axes_key({"a": [ResilienceConfig()]})


class TestSweepCli:
    def test_end_to_end_with_json_out(self, tmp_path, capsys):
        import json

        from repro.coyote import cli
        out = tmp_path / "table.json"
        code = cli.main(["sweep", "--kernel", "scalar-matmul",
                         "--cores", "2", "--size", "6",
                         "--axes", "noc.latency=2,6",
                         "--best", "cycles", "--out", str(out)])
        assert code == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert "noc.latency" in stdout and "best cycles" in stdout
        document = json.loads(out.read_text())
        assert len(document["points"]) == 2
        assert document["aggregate"]["failed"] == 0

    @pytest.mark.parametrize("spec", ["bad==x", "noc.latency=2,,6",
                                      "=2,6", "noc.latency"])
    def test_malformed_axes_are_config_errors(self, spec, capsys):
        from repro.coyote import cli
        code = cli.main(["sweep", "--kernel", "scalar-matmul",
                         "--axes", spec])
        assert code == cli.EXIT_CONFIG
        assert "bad axis" in capsys.readouterr().err

    def test_axis_tokens_are_typed(self):
        from repro.coyote.cli import parse_axes
        axes = parse_axes(["mix=2,2.5,true,shared"])
        assert axes["mix"] == [2, 2.5, True, "shared"]


class TestTableMetadata:
    def test_wall_seconds_and_workers_recorded(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2]})
        table = sweep.run(make_axpy, workers=2)
        assert table.workers == 2
        assert table.wall_seconds > 0

    def test_aggregate_rolls_up_metrics(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2, 6]})
        table = sweep.run(make_axpy, workers=2)
        aggregate = table.aggregate(("cycles",))
        assert aggregate["points"] == 2
        assert aggregate["succeeded"] == 2
        assert aggregate["failed"] == 0
        stats = aggregate["metrics"]["cycles"]
        assert stats["min"] <= stats["mean"] <= stats["max"]
        assert stats["total"] == sum(point.metric("cycles")
                                     for point in table.points)

    def test_host_facts_stay_out_of_canonical_dict(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2]})
        table = sweep.run(make_axpy, workers=2)
        document = table.to_dict(("cycles",))
        assert set(document) == {"axes", "points"}
