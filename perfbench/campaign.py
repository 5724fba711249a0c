"""The ``campaign`` workload: one sweep under every point executor.

A round runs in a fresh process (``python3 perfbench/campaign.py``) and
times the same 16-point scalar-matmul sweep (size 8, 4 cores,
``l2_mode`` x ``noc.latency``) as five series, always in this order:

1. ``pool`` -- supervised single-worker pool, one forked worker per point;
2. ``service_cold`` -- a fresh durable service: every point simulated in
   a worker, every result written to the result cache;
3. ``service_warm`` -- the same service reopened and the identical sweep
   resubmitted :data:`WARM_SUBMISSIONS` times: every point is served from
   the result cache;
4. ``inprocess_cold`` -- the serial in-process loop, first simulation of
   the process, so every block is compiled;
5. ``inprocess_warm`` -- the same loop again, blocks already compiled.

Points are short, so fork, cold compile, pipe, journal and cache
overheads dominate.  Series use one worker, so with the parent at most
two processes are busy on the 2-CPU host.

The order is a measurement condition, not a convenience.  Forked
workers inherit the parent's compiled-block cache: if an in-process
series ran first, every pool point would start warm.  On the 2-CPU
development host a pool point measured that way cost 33 ms, against
72-85 ms from a cold parent.  :func:`run_round` therefore refuses to
start ``pool``, ``service_cold`` or ``inprocess_cold`` unless the
process has compiled no block yet.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import checkout

SERIES = ("pool", "service_cold", "service_warm", "inprocess_cold",
          "inprocess_warm")
# Series that must start with no compiled block in the process.
COLD_SERIES = ("pool", "service_cold", "inprocess_cold")
# Series whose points are simulated in forked workers.  The host-speed
# probe measures the CPU the round's process runs on, and the scheduler
# may run the worker on the other one: over 39 rounds the probe-scaled
# pool series spread by 23% from round to round, unscaled by 10%.  So
# these series are not scaled; the series in the round's own process
# are (hostspeed).
FORKED_SERIES = ("pool", "service_cold")
WARM_SUBMISSIONS = 4
SETUP_REPS = 16
TABLE_METRICS = ("cycles", "instructions", "l1d_miss_rate")
ROUND_TIMEOUT_S = 170

# scale -> (matmul size, cores, sweep axes)
CAMPAIGNS = {
    "full": (8, 4, {"l2_mode": ["shared", "private"],
                    "noc.latency": [2, 4, 6, 8, 10, 12, 14, 16]}),
    "small": (4, 4, {"l2_mode": ["shared", "private"],
                     "noc.latency": [2, 4]}),
}


def point_digests(table) -> list[str]:
    """One digest per point of a sweep table, host timing excluded."""
    return [hashlib.sha256(json.dumps(point, sort_keys=True,
                                      default=str).encode()
                           ).hexdigest()[:16]
            for point in table.to_dict(TABLE_METRICS)["points"]]


def run_round(seed: int, scale: str, trace: bool, work: Path) -> dict:
    """Run the five series once in this process; returns the record."""
    from repro.coyote.sweep import Sweep
    from repro.kernels import KERNELS, scalar_matmul
    from repro.resilience.supervisor import SupervisorPolicy
    from repro.service.service import CampaignService
    from repro.spike import translate

    import layers
    from hostspeed import HostSpeed
    from tracer import Tracer, load_workers
    from workloads import SimCounts, stats_metrics, untraced

    size, cores, axes = CAMPAIGNS[scale]
    clock = time.perf_counter

    def make_workload():
        return scalar_matmul(size=size, num_cores=cores, seed=seed)

    # The service runs named kernels only; register this seed's matmul
    # so the service simulates the same program as the other series.
    kernel = f"perfbench-matmul-seed{seed}"
    KERNELS[kernel] = functools.partial(scalar_matmul, seed=seed)
    sweep = Sweep(base_cores=cores, axes=axes)
    policy = SupervisorPolicy(point_timeout_seconds=600.0,
                              heartbeat_interval_seconds=0.2)

    # Setup and every series are bracketed by host-speed probes taken in
    # this process (hostspeed explains why).  The compiled-block cache
    # stays live for the probe after inprocess_cold, since
    # inprocess_warm needs it.
    speed = HostSpeed()
    setup = []
    for rep in range(SETUP_REPS):
        start = clock()
        make_workload()
        opened = CampaignService(work / f"setup-{rep}").open()
        setup.append(clock() - start)
        opened.close()
    setup_scale = speed.scale_since_last()
    setup = [sample * setup_scale for sample in setup]

    def pool():
        return [sweep.run(make_workload, workers=1, on_error="skip",
                          policy=policy)]

    def service(submissions: int):
        tables = []
        with CampaignService(work / "service", workers=1) as opened:
            for _ in range(submissions):
                job = opened.submit(kernel, axes, cores=cores,
                                    size=size)
                opened.run()
                tables.append(opened.result(job))
        return tables

    def inprocess():
        return [sweep.run(make_workload, workers=1, on_error="skip")]

    runs = {
        "pool": pool,
        "service_cold": lambda: service(1),
        "service_warm": lambda: service(WARM_SUBMISSIONS),
        "inprocess_cold": inprocess,
        "inprocess_warm": inprocess,
    }
    tracer = None
    span = untraced
    worker_spans = work / "worker-spans"
    if trace:
        tracer = Tracer()
        worker_spans.mkdir(parents=True)
        layers.install_campaign_layers(tracer, worker_spans)
        span = tracer.span
    series = {}
    order = []
    compiled_at_start = {}
    traced_wall = 0.0
    try:
        for name in SERIES:
            compiled = len(translate._FACTORY_CACHE)
            if name in COLD_SERIES and compiled:
                raise RuntimeError(
                    f"series {name} would start with {compiled} "
                    f"compiled blocks in the parent; the campaign "
                    f"order is broken")
            compiled_at_start[name] = compiled
            order.append(name)
            start = clock()
            with span(f"campaign.{name}"):
                tables = runs[name]()
            wall = clock() - start
            traced_wall += wall
            series[name] = _series_record(name, tables, wall)
            scale = speed.scale_since_last()
            series[name]["scale"] = (1.0 if name in FORKED_SERIES
                                     else scale)
            if name == "inprocess_cold":
                cold_results = [point.results
                                for point in tables[0].points
                                if point.results is not None]
    finally:
        if tracer is not None:
            tracer.uninstall()

    record = {
        "order": order,
        "compiled_at_start": compiled_at_start,
        "series": series,
        "setup_s": setup,
        "rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rss_children_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "stats": stats_metrics([SimCounts.of(results)
                                for results in cold_results], 1),
        "layers": None,
    }
    if tracer is not None:
        error = tracer.check_conservation(traced_wall)
        workers, count, worker_error = load_workers(worker_spans)
        started = tracer.calls("coyote.parallel.worker_start")
        if count != started:
            raise RuntimeError(f"{started} workers started but {count} "
                               f"wrote their spans")
        record["layers"] = layers.campaign_metrics(tracer, workers)
        record["layers"]["trace.conservation_error"] = max(error,
                                                           worker_error)
    return record


def _series_record(name: str, tables: list, wall: float) -> dict:
    """Timing, digests and simulated work of one series.

    ``service_warm`` serves cached results, whose host timings belong to
    the simulations ``service_cold`` ran, so it adds no simulated work.
    """
    simulated = name != "service_warm"
    instructions = 0
    sim_seconds = 0.0
    for table in tables:
        for point in table.points:
            if simulated and point.results is not None:
                instructions += point.results.instructions
                sim_seconds += point.results.wall_seconds
    return {
        "wall_s": wall,
        "points": sum(len(table.points) for table in tables),
        "failed": [[point.failed for point in table.points]
                   for table in tables],
        "digests": [point_digests(table) for table in tables],
        "sim_instructions": instructions,
        "sim_seconds": sim_seconds,
    }


def launch_round(seed: int, scale: str, trace: bool, work: Path) -> dict:
    """Run one round in a fresh interpreter and return its record.

    The child's temporary files (worker stderr captures) go under
    ``work`` so the benchmark writes only inside its checkout.
    """
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(work))
    command = [sys.executable, str(Path(__file__).resolve()),
               "--seed", str(seed), "--scale", scale,
               "--trace", str(int(trace)), "--work", str(work)]
    done = subprocess.run(command, capture_output=True, text=True,
                          env=env, timeout=ROUND_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"campaign round failed (exit "
                           f"{done.returncode}):\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(CAMPAIGNS),
                        default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    checkout.use_checkout_sources()
    record = run_round(args.seed, args.scale, bool(args.trace), args.work)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
