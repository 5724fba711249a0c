"""Differential tests: the optimised hot loop vs the reference loop.

The orchestrator keeps the original straight-line per-cycle loop in the
product behind ``use_reference_loop``; these tests run every example
kernel through both loops and assert bit-identical outcomes — cycle
counts, all statistics, per-core breakdowns, and miss traces.  This is
the proof obligation for the fast loop's incremental active list, its
due-ring batch (for any number of active cores, one included), its
per-cycle pass with the dispatch-gap jump, and the O(1) all-stalled
fast-forward.  ``test_loop_fuzz.py`` extends the same proof to random
programs.
"""

import hashlib
import json

import pytest

from repro.coyote import Simulation, SimulationConfig
from repro.coyote.cli import make_workload
from repro.kernels import KERNELS

# Tiny-but-representative sizes (mirrors the CLI kernel coverage test).
_SIZE = {
    "scalar-matmul": 6, "vector-matmul": 6,
    "scalar-spmv": 8, "spmv-csr-gather-reduce": 8,
    "spmv-csr-gather-accum": 8, "spmv-ell": 8,
    "spmv-csr-compressed": 8,
    "vector-stencil": 16, "vector-axpy": 16, "stream-triad": 16,
    "vector-dot": 16, "fft-radix2": 8, "nn-dense-relu": 6,
    "mlp-inference": 6, "histogram": 16,
}

# Fields that measure the host or observe the run without steering it
# (the guest profile is checked digest-identical separately below).
_HOST_FIELDS = ("wall_seconds", "host_mips", "host_profile",
                "guest_profile")


def _run(kernel, config_kwargs, reference):
    workload = make_workload(kernel, cores=config_kwargs.pop("cores", 2),
                             size=_SIZE[kernel])
    config = SimulationConfig.for_cores(workload.num_cores,
                                        **config_kwargs)
    simulation = Simulation(config, workload.program)
    simulation.orchestrator.use_reference_loop = reference
    results = simulation.run()
    data = results.to_dict()
    for field in _HOST_FIELDS:
        data.pop(field, None)
    return simulation, data


def _digest(data) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True, default=str).encode()).hexdigest()


@pytest.mark.parametrize("kernel", sorted(KERNELS), ids=sorted(KERNELS))
def test_loops_identical_on_every_kernel(kernel):
    _sim_ref, ref = _run(kernel, {}, reference=True)
    _sim_fast, fast = _run(kernel, {}, reference=False)
    assert fast == ref
    assert _digest(fast) == _digest(ref)


@pytest.mark.parametrize("l2_mode", ["shared", "private"])
@pytest.mark.parametrize("kernel", ["scalar-matmul", "scalar-spmv"])
def test_loops_identical_across_l2_modes(kernel, l2_mode):
    kwargs = {"cores": 8, "l2_mode": l2_mode}
    _sim_ref, ref = _run(kernel, dict(kwargs), reference=True)
    _sim_fast, fast = _run(kernel, dict(kwargs), reference=False)
    assert fast == ref


def test_loops_identical_with_high_latency_fast_forward():
    # Long all-stalled gaps exercise advance_to and the one-core ring.
    kwargs = {"cores": 1, "mem_latency": 2500}
    _sim_ref, ref = _run("scalar-spmv", dict(kwargs), reference=True)
    _sim_fast, fast = _run("scalar-spmv", dict(kwargs), reference=False)
    assert fast == ref
    assert ref["activity"].get("0", 0) > 0  # gaps actually occurred


def _run_profiled(reference):
    from repro.telemetry import TelemetryConfig

    workload = make_workload("scalar-spmv", cores=4,
                             size=_SIZE["scalar-spmv"])
    config = SimulationConfig.for_cores(
        4, telemetry=TelemetryConfig(guest_profile=True))
    simulation = Simulation(config, workload.program)
    simulation.orchestrator.use_reference_loop = reference
    data = simulation.run().to_dict()
    profile = data.pop("guest_profile")
    for field in _HOST_FIELDS:
        data.pop(field, None)
    return data, profile


def test_loops_identical_with_guest_profiling():
    ref, ref_profile = _run_profiled(reference=True)
    fast, fast_profile = _run_profiled(reference=False)
    assert fast == ref
    # Both loops also attribute the profile identically.
    assert fast_profile == ref_profile
    # And profiling observes without steering: the simulated outcome
    # matches an unprofiled run bit for bit.
    _sim, plain = _run("scalar-spmv", {"cores": 4}, reference=False)
    assert fast == plain
    assert _digest(fast) == _digest(plain)


def test_traces_identical():
    def run(reference):
        workload = make_workload("scalar-spmv", cores=4, size=12)
        config = SimulationConfig.for_cores(4, trace_misses=True)
        simulation = Simulation(config, workload.program)
        simulation.orchestrator.use_reference_loop = reference
        simulation.run()
        return simulation.trace.records

    assert run(reference=False) == run(reference=True)
