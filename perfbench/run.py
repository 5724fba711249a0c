"""Coyote benchmark: simulated MIPS and per-point campaign cost, by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-scalar --seed 3 \\
        --seconds 15 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``, measured with no wrapper
installed; ``--trace 1`` reports its per-layer metrics, from a run that
alternates untraced and traced units (simulations or campaign rounds),
so the tracing overhead is measured in the same run.  The line before it
is a ``record`` with the host, interpreter, seed and source identity.

End-to-end times are scaled to a reference host speed by probes that
bracket every simulation, every setup and the campaign series that run
in the round's own process (:mod:`hostspeed` says why); the record keeps
the unscaled ``sim_mips`` and ``point_ms`` beside them.  Per-layer times
are not scaled.

Correctness: every simulation's ``verify()`` must pass and its digest
(simulated results, host timing excluded) must equal the pinned digest
in ``pins.json``.  For a seed with no pin, every repetition in the run
must reproduce the first one.  All five campaign series must produce
the same table, point by point.  Each mismatch counts as a failed
simulation or point, and any failure makes the exit code 1.

Seeds 0-19 were used to tune the benchmark; seed :data:`HELD_OUT_SEED`
was not, so a performance claim can be confirmed on a seed it was not
fitted to.  The seed only matters where the data steers the simulation.
The matmul kernels (sim-scalar, sim-observed, campaign) touch the same
addresses in the same order whatever their data, so there the seed
changes the data values that ``verify()`` checks but never the timing or
the statistics: every seed gives the same digests, and the workload has
one pin, under :data:`ANY_SEED`, that every seed is checked against.
Only sim-vector's SpMV has a sparsity pattern drawn from the seed, so
sim-vector is pinned seed by seed, and only there does the held-out
seed give other digests.  ``pin.py`` regenerates the pins.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkout
import layers
from hostspeed import HostSpeed

WORKLOADS = ("sim-scalar", "sim-vector", "sim-observed", "campaign")
HELD_OUT_SEED = 1009
# Key of the one pin a workload has when every seed gives the same one.
ANY_SEED = "any"
PINS = Path(__file__).resolve().parent / "pins.json"
NOTES = (
    "The simulated model is not validated against hardware: the "
    "repository holds no reference measurements.",
    "Modelled caches start empty in every simulation; the host "
    "compiled-block cache is emptied before every timed simulation and "
    "is cold at the start of every campaign round.",
)


def load_spec() -> dict[str, list[dict]]:
    """Metric names and units, from the checkout's BENCHMARK.json."""
    path = checkout.ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"perfbench: cannot read {path}: {exc}") from exc
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def emit(values: dict[str, float], metrics: list[dict]) -> dict:
    """``{name: {value, unit}}`` for exactly the metrics ``metrics`` names."""
    names = [metric["name"] for metric in metrics]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, "
                           f"unexpected {extra}")
    return {metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in metrics}


class Checker:
    """Counts attempted and failed simulations or campaign points."""

    def __init__(self, pinned: list[str] | None):
        self.reference = pinned
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, label: str, digests: list[str],
              bad: list[bool]) -> None:
        """Compare one unit's digests with the reference, position by
        position; ``bad`` flags results that failed on their own (exit
        code, ``verify()``, a failed sweep point)."""
        if self.reference is None:
            self.reference = list(digests)
        for index, digest in enumerate(digests):
            self.attempted += 1
            expected = (self.reference[index]
                        if index < len(self.reference) else None)
            if digest == expected and not bad[index]:
                continue
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(
                    f"{label}[{index}]: digest {digest}, expected "
                    f"{expected}{', failed' if bad[index] else ''}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_sim(name: str, seed: int, seconds: float, trace: bool,
            scale: str, checker: Checker) -> tuple[dict, dict]:
    """Repeat the workload's unit for ``seconds``; returns the metrics
    and the run's details."""
    import workloads
    from repro.spike import translate
    from tracer import Tracer

    kernels = workloads.SIM_WORKLOADS[name][scale]
    tracer = Tracer() if trace else None
    plain: list[list] = []
    traced: list[list] = []
    deadline = time.perf_counter() + seconds

    speed = None if trace else HostSpeed()

    def unit(tracing: bool) -> list:
        if tracing:
            layers.install_sim_layers(tracer)
        records = []
        try:
            for kernel in kernels:
                records.append(workloads.run_kernel(
                    kernel, seed, tracer if tracing else None))
                if speed is not None:
                    # The next simulation starts cold anyway; keep its
                    # compiled blocks out of the probe's process state.
                    translate._FACTORY_CACHE.clear()
                    records[-1].scale = speed.scale_since_last()
        finally:
            if tracing:
                tracer.uninstall()
        checker.check(f"{name}{' traced' if tracing else ''}",
                      [record.digest for record in records],
                      [not record.ok for record in records])
        return records

    while not plain or time.perf_counter() < deadline:
        plain.append(unit(False))
        if trace:
            traced.append(unit(True))

    flat = [record for records in plain for record in records]
    details = {"units": len(plain), "traced_units": len(traced),
               "kernels": [kernel.label for kernel in kernels]}
    if not trace:
        instructions = sum(record.counts.instructions for record in flat)
        details["raw"] = {
            "sim_mips": instructions / sum(record.run_s for record in flat)
            / 1e6,
            "point_ms": statistics.fmean(record.wall_s for record in flat)
            * 1e3}
        details["host_probe_s"] = speed.probes
        metrics = {
            "sim_mips": instructions / sum(record.run_s * record.scale
                                           for record in flat) / 1e6,
            "point_ms": statistics.fmean(record.wall_s * record.scale
                                         for record in flat) * 1e3,
            "setup_s": statistics.median(
                sum(record.setup_s * record.scale for record in records)
                for records in plain),
            "peak_rss_mb": peak_rss_mb(),
        }
        return metrics, details

    traced_flat = [record for records in traced for record in records]
    traced_wall = sum(record.wall_s for record in traced_flat)
    metrics = layers.sim_metrics(
        tracer, len(traced),
        sum(record.counts.instructions for record in traced_flat))
    metrics.update(workloads.stats_metrics(
        [record.counts for record in traced_flat], len(traced)))
    metrics["trace.conservation_error"] = \
        tracer.check_conservation(traced_wall)
    metrics["trace.overhead_share"] = \
        traced_wall / sum(record.wall_s for record in flat) - 1.0
    return metrics, details


def run_campaign(seed: int, seconds: float, trace: bool, scale: str,
                 checker: Checker, work: Path) -> tuple[dict, dict]:
    """Repeat campaign rounds, each in a fresh process, for ``seconds``."""
    import campaign

    plain: list[dict] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + seconds

    def one_round(tracing: bool) -> dict:
        record = campaign.launch_round(seed, scale, tracing,
                                       work / f"round-{len(plain)}"
                                       f"-{len(traced)}")
        if record["order"] != list(campaign.SERIES):
            raise RuntimeError(f"campaign series ran out of order: "
                               f"{record['order']}")
        for series in campaign.SERIES:
            entry = record["series"][series]
            for index, digests in enumerate(entry["digests"]):
                checker.check(f"campaign {series}#{index}", digests,
                              entry["failed"][index])
        return record

    while not plain or time.perf_counter() < deadline:
        plain.append(one_round(False))
        if trace:
            traced.append(one_round(True))

    def point_ms(record: dict, series: str) -> float:
        entry = record["series"][series]
        return entry["wall_s"] / entry["points"] * 1e3

    def round_point_ms(record: dict, scaled: bool) -> float:
        # Each series weighs the same, whatever its point count.
        return statistics.fmean(
            point_ms(record, series)
            * (record["series"][series]["scale"] if scaled else 1.0)
            for series in campaign.SERIES)

    def sim_seconds(record: dict, scaled: bool) -> float:
        return sum(entry["sim_seconds"] * (entry["scale"] if scaled else 1)
                   for entry in record["series"].values())

    details = {"rounds": len(plain), "traced_rounds": len(traced),
               "point_ms": {series: [point_ms(record, series)
                                     for record in plain]
                            for series in campaign.SERIES}}
    if not trace:
        instructions = sum(entry["sim_instructions"] for record in plain
                           for entry in record["series"].values())
        details["raw"] = {
            "sim_mips": instructions / sum(sim_seconds(record, False)
                                           for record in plain) / 1e6,
            "point_ms": statistics.fmean(round_point_ms(record, False)
                                         for record in plain)}
        metrics = {
            "sim_mips": instructions / sum(sim_seconds(record, True)
                                           for record in plain) / 1e6,
            "point_ms": statistics.fmean(round_point_ms(record, True)
                                         for record in plain),
            # Opening a service takes about a millisecond: the median
            # of every repetition in the run, not of per-round medians.
            "setup_s": statistics.median(sample for record in plain
                                         for sample in record["setup_s"]),
            "peak_rss_mb": statistics.median(record["rss_mb"]
                                             for record in plain),
        }
        return metrics, details

    metrics = {f"point_ms.{series}": statistics.median(
        point_ms(record, series) for record in plain)
        for series in campaign.SERIES}
    metrics["peak_rss_mb.children"] = max(record["rss_children_mb"]
                                          for record in plain + traced)
    layer_values = [record["layers"] for record in traced]
    for key in layer_values[0]:
        metrics[key] = statistics.fmean(values[key]
                                        for values in layer_values)
    metrics["trace.conservation_error"] = max(
        values["trace.conservation_error"] for values in layer_values)
    metrics.update(traced[-1]["stats"])

    def series_wall(records: list[dict]) -> float:
        return sum(entry["wall_s"] for record in records
                   for entry in record["series"].values())

    metrics["trace.overhead_share"] = \
        series_wall(traced) / series_wall(plain) - 1.0
    return metrics, details


def source_identity() -> dict:
    """The commit when the checkout is a git repository, and a digest
    of the simulator sources either way."""
    digest = hashlib.sha256()
    for path in sorted(checkout.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(checkout.SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (checkout.ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"],
                              cwd=checkout.ROOT, capture_output=True,
                              text=True, check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def host_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"),
                        default="full",
                        help="'small' shrinks every workload (self-test)")
    parser.add_argument("--pins", type=Path, default=PINS,
                        help="pinned digests (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    spec = load_spec()
    checkout.use_checkout_sources()
    pins = json.loads(args.pins.read_text())
    table = pins.get(args.scale, {}).get(args.workload, {})
    pinned = table.get(str(args.seed), table.get(ANY_SEED))
    checker = Checker(pinned)
    trace = bool(args.trace)
    work = checkout.WORK / f"run-{os.getpid()}"
    try:
        if args.workload == "campaign":
            values, details = run_campaign(args.seed, args.seconds, trace,
                                           args.scale, checker, work)
        else:
            values, details = run_sim(args.workload, args.seed,
                                      args.seconds, trace, args.scale,
                                      checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            checkout.WORK.rmdir()
        except OSError:
            pass

    if trace:
        metric_spec = spec["per_layer"]
        layers.check_required(args.workload, values)
        values["failed_share"] = checker.failed / checker.attempted
        # What is left is the other kind of workload's layers: the
        # simulation layers on campaign, the executors on sim-*.
        values = {**{metric["name"]: 0.0 for metric in metric_spec},
                  **values}
    else:
        metric_spec = spec["end_to_end"]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "pinned": pinned is not None,
        "held_out_seed": HELD_OUT_SEED, "host_cpus": host_cpus(),
        "python": platform.python_version(), **source_identity(),
        "details": details, "problems": checker.problems,
        "notes": NOTES,
    }
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": emit(values, metric_spec),
    }
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
