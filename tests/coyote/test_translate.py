"""Differential proof for the trace-compiled ISS fast path.

``SimulationConfig.translate`` switches the Spike-side block translator
on (the default) or off; these tests run the same workloads both ways
and assert bit-identical simulated outcomes — every statistic, per-core
breakdown, activity histogram and exit code — across kernels, core
counts, guest profiling, injected faults, and checkpoint/resume.  They
also pin down the code-cache invalidation story at the orchestrator
level: a program that patches its own instruction stream must execute
the patched code with translation on exactly as it does with the plain
interpreter.
"""

import hashlib
import json

import pytest

from repro.coyote import Simulation, SimulationConfig
from repro.coyote.cli import make_workload
from repro.coyote.orchestrator import Orchestrator
from repro.assembler import assemble
from repro.kernels import KERNELS
from repro.resilience import (
    FaultSpec,
    ResilienceConfig,
    restore_simulation,
    save_checkpoint,
)
from repro.telemetry import TelemetryConfig

# Tiny-but-representative sizes (mirrors test_differential.py).
_SIZE = {
    "scalar-matmul": 6, "vector-matmul": 6,
    "scalar-spmv": 8, "spmv-csr-gather-reduce": 8,
    "spmv-csr-gather-accum": 8, "spmv-ell": 8,
    "spmv-csr-compressed": 8,
    "vector-stencil": 16, "vector-axpy": 16, "stream-triad": 16,
    "vector-dot": 16, "fft-radix2": 8, "nn-dense-relu": 6,
    "mlp-inference": 6, "histogram": 16,
}

_HOST_FIELDS = ("wall_seconds", "host_mips", "host_profile",
                "guest_profile")


def _stats(results):
    data = results.to_dict()
    for field in _HOST_FIELDS:
        data.pop(field, None)
    return data


def _digest(data) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True, default=str).encode()).hexdigest()


def _run(kernel, cores, translate, **config_kwargs):
    workload = make_workload(kernel, cores=cores, size=_SIZE[kernel])
    config = SimulationConfig.for_cores(workload.num_cores,
                                        translate=translate,
                                        **config_kwargs)
    simulation = Simulation(config, workload.program)
    return simulation, simulation.run()


@pytest.mark.parametrize("kernel", sorted(KERNELS), ids=sorted(KERNELS))
def test_translated_matches_interpreter_on_every_kernel(kernel):
    _sim, interp = _run(kernel, 2, translate=False)
    _sim, translated = _run(kernel, 2, translate=True)
    assert _stats(translated) == _stats(interp)
    assert _digest(_stats(translated)) == _digest(_stats(interp))


@pytest.mark.parametrize("cores", [1, 4, 8])
@pytest.mark.parametrize("kernel", ["scalar-matmul", "fft-radix2"])
def test_translated_matches_interpreter_across_core_counts(kernel, cores):
    _sim, interp = _run(kernel, cores, translate=False)
    _sim, translated = _run(kernel, cores, translate=True)
    assert _stats(translated) == _stats(interp)


@pytest.mark.parametrize("kernel", ["scalar-matmul", "histogram"])
def test_translated_matches_interpreter_with_guest_profile(kernel):
    telemetry = TelemetryConfig(guest_profile=True)
    _sim, interp = _run(kernel, 4, translate=False, telemetry=telemetry)
    _sim, translated = _run(kernel, 4, translate=True,
                            telemetry=telemetry)
    interp_data = interp.to_dict()
    translated_data = translated.to_dict()
    # The per-PC retire counts and stall attribution must be exact
    # under block dispatch, not merely the aggregate statistics.
    assert translated_data["guest_profile"] == interp_data["guest_profile"]
    assert _stats(translated) == _stats(interp)


def test_translated_matches_interpreter_under_faults():
    resilience = ResilienceConfig(
        faults=[FaultSpec(target="l2bank", kind="delay", extra=7,
                          jitter=12, probability=0.5),
                FaultSpec(target="noc", kind="duplicate", extra=3,
                          start=50, end=5000)],
        fault_seed=1234)
    _sim, interp = _run("scalar-spmv", 4, translate=False,
                        resilience=resilience)
    _sim, translated = _run("scalar-spmv", 4, translate=True,
                            resilience=resilience)
    assert _stats(translated) == _stats(interp)


class TestCheckpointResume:
    """Checkpoint hygiene: translated closures must never leak into a
    pickle, and a resumed translated run (including one paused midway
    through a multi-instruction block, where the hart carries a
    ``_resume_at`` budget) must match an uninterrupted one bit for
    bit."""

    @pytest.mark.parametrize("fraction", [0.3, 0.7])
    def test_resume_translated_matches_straight_run(self, tmp_path,
                                                    fraction):
        straight, reference = _run("scalar-matmul", 4, translate=True)
        # An odd pause cycle lands inside multi-instruction blocks
        # often enough to exercise the mid-block pause/resume path.
        pause_at = max(1, int(reference.cycles * fraction)) | 1

        workload = make_workload("scalar-matmul", cores=4,
                                 size=_SIZE["scalar-matmul"])
        config = SimulationConfig.for_cores(4, translate=True)
        paused = Simulation(config, workload.program)
        assert paused.run(pause_at=pause_at) is None
        assert paused.paused
        path = save_checkpoint(paused, tmp_path / "translated.ckpt")
        resumed = restore_simulation(path)
        results = resumed.run()

        assert _stats(results) == _stats(reference)
        assert _digest(_stats(results)) == _digest(_stats(reference))
        assert workload.verify(resumed.memory)

    def test_resume_translated_matches_interpreter(self, tmp_path):
        _sim, interp = _run("scalar-matmul", 4, translate=False)
        pause_at = max(1, interp.cycles // 2) | 1

        workload = make_workload("scalar-matmul", cores=4,
                                 size=_SIZE["scalar-matmul"])
        config = SimulationConfig.for_cores(4, translate=True)
        paused = Simulation(config, workload.program)
        assert paused.run(pause_at=pause_at) is None
        path = save_checkpoint(paused, tmp_path / "cross.ckpt")
        results = restore_simulation(path).run()
        assert _stats(results) == _stats(interp)


# A second pass through 'site' must execute the patched instruction
# (addi a0, zero, 99) even though the first pass decoded — and, with
# translation on, compiled — the original (addi a0, zero, 1).  The
# exit code carries a0 out: 99 proves the stale code cache was
# invalidated by the store.
_SMC_SOURCE = """.text
_start:
    la   t0, site
    j    site            # warm the decode and translation caches
back:
    li   t1, 0x06300513  # addi a0, zero, 99
    sw   t1, 0(t0)
    j    site
site:
    addi a0, zero, 1
    beq  a0, a0, cont    # always taken
cont:
    addi a2, a2, 1
    li   t2, 2
    bltu a2, t2, back
    slli a0, a0, 1       # tohost exit value: (code << 1) | 1
    ori  a0, a0, 1
    la   t6, tohost
    sd   a0, 0(t6)
halt:
    j    halt
.data
.align 3
tohost: .dword 0
"""


class TestSelfModifyingCode:
    """Orchestrator-level SMC regression: the stale-code-cache bug
    (decode cache only dropped on ``fence.i``) would make this program
    exit 1 instead of 99 — and the translated fast path would cache the
    stale block even harder.  Both execution modes must see the patch.
    """

    @pytest.mark.parametrize("translate", [True, False],
                             ids=["translated", "interpreter"])
    def test_store_into_code_takes_effect(self, translate):
        config = SimulationConfig.for_cores(1, translate=translate)
        orchestrator = Orchestrator(config, assemble(_SMC_SOURCE))
        results = orchestrator.run()
        assert results.exit_codes == {0: 99}

    def test_smc_outcome_identical_across_modes(self):
        outcomes = []
        for translate in (True, False):
            config = SimulationConfig.for_cores(1, translate=translate)
            orchestrator = Orchestrator(config, assemble(_SMC_SOURCE))
            outcomes.append(_stats(orchestrator.run()))
        assert outcomes[0] == outcomes[1]

    def test_smc_multicore_translated(self):
        # Every core patches its own copy of the loop; all must see it.
        config = SimulationConfig.for_cores(2, translate=True)
        orchestrator = Orchestrator(config, assemble(_SMC_SOURCE))
        results = orchestrator.run()
        assert results.exit_codes == {0: 99, 1: 99}


# fadd.s of 2**127 with itself overflows float32; fsw of a double-range
# value does too.  Both must round to +inf (0x7f800000), translated or
# interpreted.  The loop runs the body twice so the second pass executes
# from translated blocks.
_F32_OVERFLOW_SOURCE = """.text
_start:
    li   s0, 2
    la   s1, out
loop:
    li   t0, 0x7f000000
    fmv.w.x fa0, t0
    fadd.s fa1, fa0, fa0
    fmv.x.w a0, fa1
    fsw  fa1, 0(s1)
    li   t1, 0x7e37e43c8800759c   # 1e300
    fmv.d.x fa2, t1
    fsw  fa2, 4(s1)
    addi s0, s0, -1
    bnez s0, loop
    slli a0, a0, 1
    ori  a0, a0, 1
    la   t6, tohost
    sd   a0, 0(t6)
halt:
    j    halt
.data
.align 3
tohost: .dword 0
out: .zero 8
"""


@pytest.mark.parametrize("translate", [True, False],
                         ids=["translated", "interpreter"])
def test_f32_overflow_rounds_to_infinity(translate):
    config = SimulationConfig.for_cores(1, translate=translate)
    program = assemble(_F32_OVERFLOW_SOURCE)
    orchestrator = Orchestrator(config, program)
    results = orchestrator.run()
    assert results.exit_codes == {0: 0x7F800000}
    out = program.symbols["out"]
    memory = orchestrator.machine.memory
    assert memory.load_int(out, 4) == 0x7F800000
    assert memory.load_int(out + 4, 4) == 0x7F800000
