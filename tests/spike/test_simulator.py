"""Tests for the raw multicore ISS and the CoreModel."""

import pytest

from repro.assembler import assemble
from repro.spike.machine import BareMetalMachine
from repro.spike.simulator import (
    AccessKind,
    CoreModel,
    L1Config,
    SpikeSimulator,
    StepStatus,
)


COUNTER_PROGRAM = """
.text
_start:
    csrr a0, mhartid
    la   t0, counters
    slli t1, a0, 3
    add  t0, t0, t1
    li   t2, 100
loop:
    addi t2, t2, -1
    bnez t2, loop
    sd   a0, 0(t0)
    li   a1, 1
    la   t3, tohost
    sd   a1, 0(t3)
halt:
    j halt
.data
.align 3
tohost:   .dword 0
counters: .zero 64
"""


class TestSpikeSimulator:
    def test_single_core_runs_to_completion(self):
        simulator = SpikeSimulator(assemble(COUNTER_PROGRAM), num_cores=1)
        instructions = simulator.run()
        assert instructions > 200

    def test_multicore_all_halt(self):
        simulator = SpikeSimulator(assemble(COUNTER_PROGRAM), num_cores=4)
        simulator.run()
        assert all(simulator.halted)
        memory = simulator.machine.memory
        base = simulator.machine.program.symbols["counters"]
        assert [memory.load_int(base + 8 * i, 8) for i in range(4)] == \
            [0, 1, 2, 3]

    def test_interleave_same_result(self):
        results = []
        for interleave in (1, 7, 100):
            simulator = SpikeSimulator(assemble(COUNTER_PROGRAM),
                                       num_cores=2, interleave=interleave)
            simulator.run()
            memory = simulator.machine.memory
            base = simulator.machine.program.symbols["counters"]
            results.append([memory.load_int(base + 8 * i, 8)
                            for i in range(2)])
        assert results[0] == results[1] == results[2]

    def test_instruction_budget_enforced(self):
        source = ".text\n_start:\nspin: j spin\n" \
                 ".data\ntohost: .dword 0\n"
        simulator = SpikeSimulator(assemble(source), num_cores=1)
        with pytest.raises(RuntimeError):
            simulator.run(max_instructions=1000)

    def test_bad_interleave_rejected(self):
        with pytest.raises(ValueError):
            SpikeSimulator(assemble(COUNTER_PROGRAM), interleave=0)


def make_core(source: str, l1: L1Config | None = None):
    program = assemble(source)
    machine = BareMetalMachine(program, num_cores=1)
    return CoreModel(machine.harts[0], machine, l1)


class TestCoreModel:
    SIMPLE = """
.text
_start:
    la  a1, buffer
    ld  a2, 0(a1)
    ld  a3, 0(a1)
    sd  a2, 0(a1)
halt:
    j halt
.data
.align 3
tohost: .dword 0
buffer: .dword 42
"""

    def test_first_step_is_fetch_miss(self):
        core = make_core(self.SIMPLE)
        outcome = core.step()
        assert outcome.status is StepStatus.FETCH_MISS
        assert outcome.misses[0].kind is AccessKind.IFETCH

    def test_fetch_hit_after_fill(self):
        core = make_core(self.SIMPLE)
        core.step()           # fetch miss allocates the I-line
        outcome = core.step()
        assert outcome.status is StepStatus.EXECUTED

    def test_load_miss_reports_dest_registers(self):
        core = make_core(self.SIMPLE)
        core.step()
        outcomes = [core.step() for _ in range(3)]  # la.hi, la.lo, ld
        load_outcome = outcomes[-1]
        load_misses = [miss for miss in load_outcome.misses
                       if miss.kind is AccessKind.LOAD]
        assert len(load_misses) == 1
        assert load_misses[0].registers == (("x", 12),)

    def test_second_load_same_line_hits(self):
        core = make_core(self.SIMPLE)
        core.step()
        for _ in range(3):
            core.step()
        outcome = core.step()  # second ld, same line
        assert outcome.status is StepStatus.EXECUTED
        assert not any(miss.kind is AccessKind.LOAD
                       for miss in outcome.misses)

    def test_store_hit_after_load_allocate(self):
        core = make_core(self.SIMPLE)
        core.step()
        for _ in range(4):
            core.step()
        outcome = core.step()  # sd to the (now resident) line
        assert not any(miss.kind is AccessKind.STORE
                       for miss in outcome.misses)

    def test_vector_load_coalesces_per_line(self):
        source = """
.text
_start:
    vsetvli a1, zero, e64, m1, ta, ma
    la a0, vdata
    vle64.v v1, (a0)
halt:
    j halt
.data
.align 6
tohost: .dword 0
.align 6
vdata: .zero 64
"""
        core = make_core(source)
        core.step()  # fetch miss
        for _ in range(3):
            core.step()
        outcome = core.step()  # vle64: 8 elements in one 64B line
        load_misses = [miss for miss in outcome.misses
                       if miss.kind is AccessKind.LOAD]
        assert len(load_misses) == 1

    def test_misaligned_vector_load_misses_in_element_order(self):
        source = """
.text
_start:
    vsetvli a1, zero, e64, m1, ta, ma
    la a0, vdata
    addi a0, a0, 60
    vle64.v v1, (a0)
halt:
    j halt
.data
.align 6
tohost: .dword 0
.align 6
vdata: .zero 192
"""
        core = make_core(source)
        core.step()  # fetch miss
        for _ in range(4):
            core.step()
        hart = core.hart
        base = hart.regs[10]
        outcome = core.step()  # vle64: 8 elements over 2 lines
        assert [access.address for access in hart.accesses] == \
            [base + 8 * i for i in range(8)]
        line_bytes = core.l1d.line_bytes
        expected = []
        for i in range(8):
            for byte in (base + 8 * i, base + 8 * i + 7):
                line = byte - byte % line_bytes
                if line not in expected:
                    expected.append(line)
        assert len(expected) == 2  # element 0 straddles both lines
        assert [miss.line_address for miss in outcome.misses
                if miss.kind is AccessKind.LOAD] == expected

    def test_halted_core_steps_are_noops(self):
        core = make_core(self.SIMPLE)
        core.halted = True
        assert core.step().status is StepStatus.HALTED
