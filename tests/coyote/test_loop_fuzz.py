"""Differential fuzzer: the fast cycle loop against the reference loop.

Hypothesis generates small random multi-core programs and runs each one
four ways: under ``_cycle_loop_reference``, under the fast loop with
block translation on and off, and under the fast loop with the interval
sampler live (which holds every translated dispatch to a budget of one
instruction).  Results with host fields removed, miss traces and exit
codes must be identical across all four runs.

The programs mix the shapes the fast loop specialises on:

* register-only ALU runs (translated micro-block tails that run ahead);
* bounded loops and data-dependent forward branches;
* loads and stores to one shared cache line, racing across cores, plus
  cold loads from a private buffer whose results are used at once (RAW
  stalls on pending fills);
* ``rdcycle`` / ``rdinstret`` reads (the exact lockstep cycle and the
  batched instruction credit become architectural state);
* a store into code followed by ``fence.i`` (each hart patches its own
  slot of a jump table, as in ``test_translate._SMC_SOURCE``).

Examples are derandomised so the suite is reproducible.
"""

import hashlib
import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.assembler import assemble
from repro.coyote import Simulation, SimulationConfig
from repro.kernels.runtime import wrap_program
from repro.telemetry import TelemetryConfig

_HOST_FIELDS = ("wall_seconds", "host_mips", "host_profile",
                "guest_profile", "timeseries", "latency_histograms")

# Registers the random code may read and write.  Reserved: s0 (hart id),
# s1 (shared line), s4 (patched-slot result), t0/t1/t2 (loop counter and
# address temporaries), t6 (slot link register), a0 (exit code), ra.
_POOL = ("s2", "s3", "s5", "s6", "s7", "s8", "a1", "a2", "a3", "a4")
_R_OPS = ("add", "sub", "xor", "or", "and", "sll", "srl", "sra", "mul",
          "addw", "subw", "slt", "sltu", "divu", "remu")
_I_OPS = ("addi", "xori", "ori", "andi")
_SHIFT_OPS = ("slli", "srli", "srai")
_LOADS = (("ld", 8), ("lw", 4), ("lwu", 4), ("lh", 2), ("lbu", 1),
          ("lb", 1))
_STORES = (("sd", 8), ("sw", 4), ("sh", 2), ("sb", 1))
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")
_MAX_CORES = 4
_BUFFER_LINES = 32
# Label suffixes only need to be unique within one program.
_labels = itertools.count()


def _addi_s4(value: int) -> int:
    """Encoding of ``addi s4, zero, value``."""
    return ((value & 0xFFF) << 20) | (20 << 7) | 0x13


_reg = st.sampled_from(_POOL)


def _aligned(size: int):
    return st.integers(0, 64 // size - 1).map(lambda i: i * size)


_alu = st.one_of(
    st.tuples(st.sampled_from(_R_OPS), _reg, _reg, _reg).map(
        lambda t: [f"{t[0]} {t[1]}, {t[2]}, {t[3]}"]),
    st.tuples(st.sampled_from(_I_OPS), _reg, _reg,
              st.integers(-2048, 2047)).map(
        lambda t: [f"{t[0]} {t[1]}, {t[2]}, {t[3]}"]),
    st.tuples(st.sampled_from(_SHIFT_OPS), _reg, _reg,
              st.integers(0, 63)).map(
        lambda t: [f"{t[0]} {t[1]}, {t[2]}, {t[3]}"]),
    _reg.map(lambda r: [f"add {r}, {r}, s0"]),
)
_shared_load = st.sampled_from(_LOADS).flatmap(
    lambda op: st.tuples(st.just(op[0]), _reg, _aligned(op[1]))).map(
    lambda t: [f"{t[0]} {t[1]}, {t[2]}(s1)"])
_shared_store = st.sampled_from(_STORES).flatmap(
    lambda op: st.tuples(st.just(op[0]), _reg, _aligned(op[1]))).map(
    lambda t: [f"{t[0]} {t[1]}, {t[2]}(s1)"])
_buffer_load = st.tuples(_reg, st.integers(0, _BUFFER_LINES - 1),
                         _reg).map(
    lambda t: ["la t1, buffer", f"li t2, {t[1] * 64}",
               "add t1, t1, t2", f"ld {t[0]}, 0(t1)",
               f"add {t[2]}, {t[2]}, {t[0]}"])
_counter = st.tuples(st.sampled_from(("rdcycle", "rdinstret")), _reg).map(
    lambda t: [f"{t[0]} t2", f"xor {t[1]}, {t[1]}, t2"])
_simple = st.one_of(_alu, _alu, _alu, _shared_load, _shared_store,
                    _buffer_load, _counter)


@st.composite
def _skip(draw):
    """A data-dependent forward branch over a few simple ops."""
    label = f"skip{next(_labels)}"
    cond = draw(st.sampled_from(_BRANCHES))
    body = draw(st.lists(_simple, min_size=1, max_size=4))
    return ([f"{cond} {draw(_reg)}, {draw(_reg)}, {label}"]
            + [line for op in body for line in op] + [f"{label}:"])


@st.composite
def _loop(draw):
    """A counted loop (t0) around a few simple ops."""
    label = f"loop{next(_labels)}"
    body = draw(st.lists(st.one_of(_simple, _skip()), min_size=1,
                         max_size=5))
    return ([f"li t0, {draw(st.integers(1, 6))}", f"{label}:"]
            + [line for op in body for line in op]
            + ["addi t0, t0, -1", f"bnez t0, {label}"])


@st.composite
def _patch(draw):
    """Patch this hart's slot with ``addi s4, zero, V``, fence.i, call
    it, and fold the result in."""
    value = draw(st.integers(-2048, 2047))
    return ["la t1, slots", "slli t2, s0, 3", "add t1, t1, t2",
            f"li t2, {_addi_s4(value)}", "sw t2, 0(t1)", "fence.i",
            "jalr t6, 0(t1)", f"xor {draw(_reg)}, {draw(_reg)}, s4"]


_op = st.one_of(_simple, _simple, _skip(), _loop(), _patch())


@st.composite
def programs(draw):
    """Assembly source of one random program (every hart runs it)."""
    body = [line for op in draw(st.lists(_op, min_size=4, max_size=24))
            for line in op]
    seeds = [f"li {reg}, {draw(st.integers(-(1 << 31), (1 << 31) - 1))}"
             for reg in _POOL]
    # Every hart calls its slot once before any patch, so the original
    # (addi s4, zero, 1) is decoded and translated before it changes.
    slots = "\n".join(["    addi s4, zero, 1\n    jr t6"] * _MAX_CORES)
    checksum = "\n".join(f"    xor a0, a0, {reg}" for reg in _POOL)
    main = f"""\
main:
    mv   s0, a0
    la   s1, shared
{chr(10).join('    ' + line for line in seeds)}
    la   t1, slots
    slli t2, s0, 3
    add  t1, t1, t2
    jalr t6, 0(t1)
{chr(10).join('    ' + line for line in body)}
    mv   a0, s4
{checksum}
    andi a0, a0, 0x7ff
    ret
slots:
{slots}
"""
    data = f""".align 6
shared: .zero 64
buffer: .zero {_BUFFER_LINES * 64}
"""
    return wrap_program(main, data)


def _run(source, cores, *, reference=False, translate=True, sampler=0):
    config = SimulationConfig.for_cores(
        cores, translate=translate, trace_misses=True,
        telemetry=TelemetryConfig(sample_interval=sampler))
    simulation = Simulation(config, assemble(source))
    simulation.orchestrator.use_reference_loop = reference
    data = simulation.run().to_dict()
    for field in _HOST_FIELDS:
        data.pop(field, None)
    return data, simulation.trace.records


def _digest(data) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True, default=str).encode()).hexdigest()


@pytest.mark.parametrize("cores", [1, 2, 4])
@settings(max_examples=20, deadline=None, derandomize=True,
          database=None, suppress_health_check=[HealthCheck.too_slow,
                                                HealthCheck.data_too_large])
@given(source=programs())
def test_fast_loop_matches_reference(cores, source):
    reference, reference_trace = _run(source, cores, reference=True)
    assert len(reference["exit_codes"]) == cores
    runs = {
        "translated": _run(source, cores),
        "interpreted": _run(source, cores, translate=False),
        "sampled": _run(source, cores, sampler=7),
    }
    for name, (data, trace) in runs.items():
        assert data == reference, name
        assert _digest(data) == _digest(reference), name
        assert trace == reference_trace, name
