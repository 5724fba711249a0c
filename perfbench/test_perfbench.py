"""Self-test of the benchmark at reduced size.

    python3 -m pytest perfbench -q

Checks that every workload prints every metric of BENCHMARK.json with
its unit, that traced runs conserve wall time, that a corrupted pinned
digest is counted as a failure, and that the campaign series keep their
cold order.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

import checkout

checkout.use_checkout_sources()

import campaign  # noqa: E402
import layers  # noqa: E402
import pin  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracer import (  # noqa: E402
    CONSERVATION_TOLERANCE,
    ConservationError,
    Tracer,
)

SPEC = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(checkout.ROOT / "perfbench" / "run.py")]


def bench(*args: str) -> tuple[int, dict]:
    done = subprocess.run([*RUN, "--scale", "small", "--seconds", "0.2",
                           *args], cwd=checkout.ROOT, capture_output=True,
                          text=True, timeout=300, check=False)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_name_and_unit(workload, trace):
    code, result = bench("--workload", workload, "--seed", "0",
                         "--trace", trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in spec]
    for metric in spec:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if trace == "0":
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())
    else:
        assert (result["metrics"]["trace.conservation_error"]["value"]
                <= CONSERVATION_TOLERANCE)


# Two matmul seeds give one pin for every seed; one seed gives its own.
@pytest.mark.parametrize("workload,seeds,key", [
    ("sim-scalar", "0,1", "any"), ("campaign", "0", "0")])
def test_corrupted_digest_counts_as_failure(workload, seeds, key, tmp_path):
    pins = tmp_path / "pins.json"
    pin.main(["--scale", "small", "--seeds", seeds, "--workloads",
              workload, "--out", str(pins)])
    data = json.loads(pins.read_text())
    assert list(data["small"][workload]) == [key]
    digests = data["small"][workload][key]
    digests[0] = "0" * len(digests[0])
    pins.write_text(json.dumps(data))
    code, result = bench("--workload", workload, "--seed", "0",
                         "--pins", str(pins))
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 1
    if workload == "campaign":
        # One bad point per series table: 1 + 1 + warm submissions + 2.
        assert result["failed"] % (4 + campaign.WARM_SUBMISSIONS) == 0


def test_campaign_series_run_in_cold_order(tmp_path):
    record = campaign.launch_round(0, "small", False, tmp_path / "work")
    assert record["order"] == list(campaign.SERIES)
    for series in campaign.COLD_SERIES:
        assert record["compiled_at_start"][series] == 0
    tables = [digests for series in campaign.SERIES
              for digests in record["series"][series]["digests"]]
    assert all(table == tables[0] for table in tables)


def test_campaign_refuses_a_warm_parent(tmp_path):
    pin.unit_digests("sim-scalar", 0, "small")   # compiles blocks here
    with pytest.raises(RuntimeError, match="order is broken"):
        campaign.run_round(0, "small", False, tmp_path)


def test_self_times_sum_to_the_traced_wall():
    class Layer:
        def inner(self):
            time.sleep(0.01)

        def outer(self):
            time.sleep(0.01)
            self.inner()

    tracer = Tracer()
    tracer.time(Layer, "inner", "inner")
    tracer.time(Layer, "outer", "outer")
    start = time.perf_counter()
    with tracer.span("root"):
        Layer().outer()
    wall = time.perf_counter() - start
    tracer.uninstall()
    assert tracer.check_conservation(wall) <= CONSERVATION_TOLERANCE
    assert tracer.self_s("outer") == pytest.approx(
        tracer.total_s("outer") - tracer.total_s("inner"))
    assert Layer.outer.__name__ == "outer"      # original restored
    with pytest.raises(ConservationError):
        tracer.check_conservation(wall * 2)


def test_a_silent_layer_is_an_error():
    values = {name: 1.0 for name in layers.REQUIRED["sim-vector"]}
    layers.check_required("sim-vector", values)
    values["memhier.noc.messages"] = 0.0
    with pytest.raises(RuntimeError, match="memhier.noc.messages"):
        layers.check_required("sim-vector", values)
