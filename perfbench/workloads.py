"""The benchmark's workloads and the checks on their simulated results.

Why each workload exists:

* ``sim-scalar`` -- scalar matmul on 8 cores, each core's rows resident
  in its L1D.  The translated scalar path and the cycle loop do the
  work; the vector unit and telemetry are idle.  The cycle-loop
  collapse should show here.
* ``sim-vector`` -- the paper's vector kernels back to back on 8 cores
  over a mesh NoC: vmatmul, one vector SpMV and the stencil.  The vector
  unit dominates, memhier and sparta take 10-35%.  A vector fast path
  should show here and not on sim-scalar.
* ``sim-observed`` -- sim-scalar's program with every collector on (host
  and guest profile, Chrome trace, sampler, histograms): the same
  simulated work plus telemetry.  Only cheaper collectors should move
  it.
* ``campaign`` -- a 16-point scalar-matmul sweep under every executor;
  see :mod:`campaign`.

Every simulation starts with empty modelled caches (L1, L2, memory
controller queues), and the host's compiled-block cache is emptied
before each one, so every simulation pays block translation the way a
fresh process does.  The simulated model is not validated against
hardware: the repository holds no reference measurements, so no error
figure is given.
"""

from __future__ import annotations

import gc
import hashlib
import json
import re
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

from repro.coyote import Simulation, SimulationConfig
from repro.kernels import (
    scalar_matmul,
    spmv_csr_gather_reduce,
    vector_matmul,
    vector_stencil,
)
from repro.spike import translate
from repro.telemetry.config import TelemetryConfig

import layers
from tracer import Tracer

# Every collector on; one sampler snapshot per 1000 simulated cycles.
OBSERVED_TELEMETRY = TelemetryConfig(
    sample_interval=1000, histograms=True, chrome_trace=True,
    host_profile=True, guest_profile=True)

# Host-side fields of SimulationResults.to_dict(): excluded from digests.
_HOST_FIELDS = ("wall_seconds", "host_mips", "host_profile")

_L2_COUNTER = re.compile(r"\.tile\d+\.bank\d+\.(hits|misses)$")


@dataclass(frozen=True)
class Kernel:
    """One simulation of a workload unit."""

    label: str
    build: Callable[[int], object]            # seed -> Workload
    config: Callable[[], SimulationConfig]


def _scalar(size: int, telemetry: TelemetryConfig | None = None):
    def config() -> SimulationConfig:
        if telemetry is None:
            return SimulationConfig.for_cores(8)
        return SimulationConfig.for_cores(8, telemetry=telemetry)
    return Kernel(f"scalar-matmul-{size}",
                  lambda seed: scalar_matmul(size=size, num_cores=8,
                                             seed=seed),
                  config)


def _mesh() -> SimulationConfig:
    return SimulationConfig.for_cores(8, **{"noc.kind": "mesh"})


def _vector(matmul: int, spmv_rows: int, stencil: int) -> list[Kernel]:
    return [
        Kernel(f"vector-matmul-{matmul}",
               lambda seed: vector_matmul(size=matmul, num_cores=8,
                                          seed=seed), _mesh),
        Kernel(f"spmv-csr-gather-reduce-{spmv_rows}",
               lambda seed: spmv_csr_gather_reduce(
                   num_rows=spmv_rows, num_cores=8, seed=seed), _mesh),
        Kernel(f"vector-stencil-{stencil}",
               lambda seed: vector_stencil(length=stencil, num_cores=8,
                                           seed=seed), _mesh),
    ]


# workload -> scale -> the kernels of one unit, run in this order.
SIM_WORKLOADS: dict[str, dict[str, list[Kernel]]] = {
    "sim-scalar": {"full": [_scalar(48)], "small": [_scalar(8)]},
    "sim-vector": {"full": _vector(48, 512, 4096),
                   "small": _vector(8, 32, 64)},
    "sim-observed": {"full": [_scalar(48, OBSERVED_TELEMETRY)],
                     "small": [_scalar(8, OBSERVED_TELEMETRY)]},
}


def results_digest(results) -> str:
    """Hash of the simulated outcome, host timing excluded."""
    data = results.to_dict()
    for key in _HOST_FIELDS:
        data.pop(key, None)
    payload = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SimCounts:
    """The simulated statistics of one run that the benchmark reports."""

    cycles: int
    instructions: int
    events: int
    l1d_accesses: int
    l1d_misses: int
    l2_hits: int
    l2_misses: int

    @classmethod
    def of(cls, results) -> "SimCounts":
        accesses = misses = 0
        for core in results.cores:
            l1d = core.l1d
            accesses += l1d.reads + l1d.writes
            misses += l1d.read_misses + l1d.write_misses
        l2 = {"hits": 0, "misses": 0}
        for sample in results.hierarchy_samples:
            match = _L2_COUNTER.search(sample.full_name)
            if match:
                l2[match.group(1)] += int(sample.value)
        return cls(results.cycles, results.instructions,
                   results.events_fired, accesses, misses, l2["hits"],
                   l2["misses"])


@dataclass
class SimRecord:
    """What one simulation measured and produced."""

    label: str
    build_s: float
    init_s: float
    run_s: float
    digest: str
    ok: bool                  # exit codes zero and verify() true
    counts: SimCounts
    # Factor to the reference host speed (hostspeed); 1.0 if unprobed.
    scale: float = 1.0

    @property
    def setup_s(self) -> float:
        return self.build_s + self.init_s

    @property
    def wall_s(self) -> float:
        return self.build_s + self.init_s + self.run_s


def untraced(name: str):
    """Stands in for :meth:`Tracer.span` when nothing is traced."""
    return nullcontext()


def run_kernel(kernel: Kernel, seed: int,
               tracer: Tracer | None = None) -> SimRecord:
    """Build, construct and run one simulation, timing each phase.

    With a ``tracer`` the three phases are its top-level spans; the
    caller installs the layer wrappers before this is called.
    """
    translate._FACTORY_CACHE.clear()
    gc.collect()
    clock = time.perf_counter
    span = tracer.span if tracer is not None else untraced
    start = clock()
    with span(layers.BUILD):
        workload = kernel.build(seed)
    built = clock()
    with span(layers.INIT):
        simulation = Simulation(kernel.config(), workload.program)
    ready = clock()
    with span(layers.RUN):
        results = simulation.run()
    done = clock()
    ok = bool(results.succeeded() and workload.verify(simulation.memory))
    return SimRecord(kernel.label, built - start, ready - built,
                     done - ready, results_digest(results), ok,
                     SimCounts.of(results))


def stats_metrics(counts: list[SimCounts], units: int) -> dict[str, float]:
    """Simulated statistics per unit; they must repeat exactly."""
    accesses = sum(item.l1d_accesses for item in counts)
    l2 = sum(item.l2_hits + item.l2_misses for item in counts)
    return {
        "coyote.stats.cycles": sum(item.cycles for item in counts) / units,
        "coyote.stats.instructions":
            sum(item.instructions for item in counts) / units,
        "sparta.scheduler.events": sum(item.events for item in counts) / units,
        "coyote.stats.l1d_miss_rate":
            sum(item.l1d_misses for item in counts) / accesses
            if accesses else 0.0,
        "coyote.stats.l2_hit_rate":
            sum(item.l2_hits for item in counts) / l2 if l2 else 0.0,
    }
