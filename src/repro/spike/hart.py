"""The functional RISC-V hart (core) model.

A :class:`Hart` executes RV64IMAFD + RVV-subset instructions against a
shared :class:`~repro.soc.memory.SparseMemory`.  Execution is purely
functional; every data memory access performed by a step is recorded in
``hart.accesses`` so the caching/timing layers above can classify it.

Executor functions are registered in the module-level ``EXEC`` dispatch
table via the :func:`executor` decorator; :mod:`repro.spike.vector`
registers the vector ISA on import.
"""

from __future__ import annotations

import math
import struct
from typing import NamedTuple

from repro.isa import csr as csrdef
from repro.isa.decoder import IllegalInstruction, Instruction, decode
from repro.isa.vtype import VType
from repro.soc.memory import SparseMemory
from repro.utils.bitops import MASK32, MASK64, sign_extend, to_signed

DEFAULT_VLEN_BITS = 512


class Trap(Exception):
    """Base class for architectural traps."""

    def __init__(self, cause: str, pc: int):
        self.cause = cause
        self.pc = pc
        super().__init__(f"{cause} at pc={pc:#x}")


class EnvironmentCall(Trap):
    """Raised by ``ecall`` (bare-metal mode has no syscall handler)."""

    def __init__(self, pc: int):
        super().__init__("environment call", pc)


class Breakpoint(Trap):
    """Raised by ``ebreak``."""

    def __init__(self, pc: int):
        super().__init__("breakpoint", pc)


class IllegalInstructionTrap(Trap):
    """Raised when execution reaches an undecodable or unsupported word."""

    def __init__(self, pc: int, word: int):
        self.word = word
        super().__init__(f"illegal instruction {word:#010x}", pc)


class MemAccess(NamedTuple):
    """One data memory access performed by an instruction.

    A named tuple, not a frozen dataclass: a unit-stride vector access
    records one per element, and a tuple is much cheaper to build.
    """

    address: int
    size: int
    is_write: bool


class CodeCacheRegistry:
    """Machine-wide invalidation fan-out for derived-from-code caches.

    Decoded instructions (``Hart._decode_cache``) and translated block
    functions (:mod:`repro.spike.translate`) are both derived from code
    bytes in shared memory, so a store into a page *any* hart has
    decoded from must drop the derived state everywhere — not only on
    ``fence.i``.  ``pages`` holds every page number known to contain
    decoded code; the hart store helpers consult it with a single set
    membership test, so programs that never write near their code pay
    one ``in`` check per store and nothing else.
    """

    def __init__(self):
        self.pages: set[int] = set()
        self.harts: list[Hart] = []
        # Translation caches; each exposes invalidate_range()/drop_all().
        self.caches: list = []

    def register_hart(self, hart: "Hart") -> None:
        self.harts.append(hart)

    def register_cache(self, cache) -> None:
        self.caches.append(cache)

    def note_store(self, address: int, size: int) -> None:
        """A store touched a known code page: drop overlapping entries.

        Any 4-byte instruction slot overlapping ``[address, address +
        size)`` starts at a pc in ``[address - 3, address + size - 1]``,
        so that range bounds both the decode-cache sweep and the
        translated-block overlap test.
        """
        lo = address - 3
        hi = address + size - 1
        for hart in self.harts:
            cache = hart._decode_cache
            if cache:
                for pc in range(lo, hi + 1):
                    cache.pop(pc, None)
        for cache in self.caches:
            cache.invalidate_range(lo, hi)


# The executor dispatch table: mnemonic -> callable(hart, instr).
EXEC: dict = {}


def executor(*mnemonics: str):
    """Register a function as the executor for ``mnemonics``."""
    def register(fn):
        for mnemonic in mnemonics:
            if mnemonic in EXEC:
                raise RuntimeError(f"duplicate executor for {mnemonic}")
            EXEC[mnemonic] = fn
        return fn
    return register


def f64_to_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits_to_f64(raw: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", raw & MASK64))[0]


def f32_to_bits(value: float) -> int:
    try:
        return struct.unpack("<I", struct.pack("<f", value))[0]
    except OverflowError:  # beyond float32 range: see round_f32
        return 0x7F800000 if value > 0 else 0xFF800000


def bits_to_f32(raw: int) -> float:
    return struct.unpack("<f", struct.pack("<I", raw & MASK32))[0]


def round_f32(value: float) -> float:
    """Round a double to the nearest representable float32.

    A finite double that rounds beyond the float32 range becomes ±inf,
    as round-to-nearest requires; ``struct`` raises ``OverflowError``
    for exactly those values instead.
    """
    try:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    except OverflowError:
        return math.copysign(math.inf, value)


class Hart:
    """Architectural state and functional execution for one core."""

    def __init__(self, hart_id: int, memory: SparseMemory,
                 vlen_bits: int = DEFAULT_VLEN_BITS, reset_pc: int = 0,
                 code_registry: CodeCacheRegistry | None = None):
        if vlen_bits % 64 or vlen_bits < 64:
            raise ValueError(f"VLEN must be a multiple of 64: {vlen_bits}")
        self.hart_id = hart_id
        self.memory = memory
        self.vlen_bits = vlen_bits
        self.vlenb = vlen_bits // 8

        self.pc = reset_pc
        self.regs = [0] * 32
        self.fregs = [0.0] * 32
        # The vector register file, flat: register r is the bytes
        # [r * vlenb, (r + 1) * vlenb), so an LMUL > 1 group is one span.
        self.vrf = bytearray(32 * self.vlenb)
        self.vl = 0
        self.vtype = VType(vill=True)
        self.csrs: dict[int, int] = {}
        self.instret = 0
        self.reservation: int | None = None
        self.frm = 0

        # Populated by step(); consumed by the caching layer.
        self.accesses: list[MemAccess] = []
        # Cycle source injected by the orchestrator so rdcycle works;
        # None falls back to the retired-instruction count.  Kept a
        # plain (picklable) attribute so a whole hart — decode cache
        # aside — can be checkpointed with the rest of the simulation.
        self.cycle_source = None

        self._decode_cache: dict[int, tuple[Instruction, object]] = {}
        self._pc_next = 0
        # Code-cache invalidation plumbing: the registry is shared by
        # every hart of one machine (stores by any hart must invalidate
        # everyone's decoded state); ``_code_pages`` aliases its page
        # set for the one-test store guard, and ``_code_caches`` lists
        # this hart's translation caches for drop_code_caches().
        self.code_registry = (code_registry if code_registry is not None
                              else CodeCacheRegistry())
        self.code_registry.register_hart(self)
        self._code_pages = self.code_registry.pages
        self._code_caches: list = []

    # -- register helpers ---------------------------------------------------

    def read_reg(self, index: int) -> int:
        return self.regs[index]

    def write_reg(self, index: int, value: int) -> None:
        if index:
            self.regs[index] = value & MASK64

    # -- memory helpers (record every data access) --------------------------

    def load_int(self, address: int, size: int, signed: bool = False) -> int:
        self.accesses.append(MemAccess(address, size, False))
        value = self.memory.load_int(address, size)
        if signed:
            return sign_extend(value, 8 * size) & MASK64
        return value

    def store_int(self, address: int, value: int, size: int) -> None:
        self.accesses.append(MemAccess(address, size, True))
        self.memory.store_int(address, value, size)
        if (address >> 12) in self._code_pages \
                or ((address + size - 1) >> 12) in self._code_pages:
            self.code_registry.note_store(address, size)

    def load_f64(self, address: int) -> float:
        self.accesses.append(MemAccess(address, 8, False))
        return bits_to_f64(self.memory.load_int(address, 8))

    def store_f64(self, address: int, value: float) -> None:
        self.accesses.append(MemAccess(address, 8, True))
        self.memory.store_int(address, f64_to_bits(value), 8)
        if (address >> 12) in self._code_pages \
                or ((address + 7) >> 12) in self._code_pages:
            self.code_registry.note_store(address, 8)

    # -- CSR access ---------------------------------------------------------

    def read_csr(self, address: int) -> int:
        if address == csrdef.MHARTID:
            return self.hart_id
        if address in (csrdef.CYCLE, csrdef.MCYCLE, csrdef.TIME):
            source = self.cycle_source
            return (source() if source is not None else self.instret) \
                & MASK64
        if address in (csrdef.INSTRET, csrdef.MINSTRET):
            return self.instret & MASK64
        if address == csrdef.VL:
            return self.vl
        if address == csrdef.VTYPE:
            return self.vtype.encode()
        if address == csrdef.VLENB:
            return self.vlenb
        if address == csrdef.FRM:
            return self.frm
        return self.csrs.get(address, 0)

    def write_csr(self, address: int, value: int) -> None:
        if address in csrdef.READ_ONLY_CSRS:
            raise IllegalInstructionTrap(self.pc, 0)
        if address == csrdef.FRM:
            self.frm = value & 0b111
            return
        self.csrs[address] = value & MASK64

    # -- vector state -------------------------------------------------------

    def vlmax(self) -> int:
        return self.vtype.vlmax(self.vlen_bits)

    def set_vl(self, avl: int, vtype: VType) -> int:
        """Apply a vset{i}vl{i}; returns the new vl."""
        self.vtype = vtype
        if vtype.vill:
            self.vl = 0
            return 0
        self.vl = min(avl, vtype.vlmax(self.vlen_bits))
        return self.vl

    def read_velem(self, base_reg: int, index: int, sew: int) -> int:
        """Element ``index`` of the register group starting at ``base_reg``."""
        elem_bytes = sew // 8
        offset = base_reg * self.vlenb + index * elem_bytes
        return int.from_bytes(self.vrf[offset:offset + elem_bytes], "little")

    def write_velem(self, base_reg: int, index: int, sew: int,
                    value: int) -> None:
        elem_bytes = sew // 8
        offset = base_reg * self.vlenb + index * elem_bytes
        self.vrf[offset:offset + elem_bytes] = \
            (value & ((1 << sew) - 1)).to_bytes(elem_bytes, "little")

    def read_vmask_bit(self, index: int) -> int:
        """Bit ``index`` of the mask register v0."""
        return (self.vrf[index >> 3] >> (index & 7)) & 1

    # -- execution ----------------------------------------------------------

    def decode_at(self, pc: int) -> Instruction:
        """Decode (and cache) the instruction at ``pc`` without executing."""
        return self._decode_entry(pc)[0]

    def _decode_entry(self, pc: int) -> tuple[Instruction, object]:
        entry = self._decode_cache.get(pc)
        if entry is None:
            word = self.memory.load_int(pc, 4)
            try:
                instr = decode(word)
            except IllegalInstruction as exc:
                raise IllegalInstructionTrap(pc, word) from exc
            fn = EXEC.get(instr.mnemonic)
            if fn is None:
                raise IllegalInstructionTrap(pc, word)
            entry = (instr, fn)
            self._decode_cache[pc] = entry
            pages = self._code_pages
            pages.add(pc >> 12)
            if (pc + 3) >> 12 != pc >> 12:
                pages.add((pc + 3) >> 12)
        return entry

    def drop_code_caches(self) -> None:
        """Drop every cache derived from code bytes for this hart.

        The single invalidation entry point: ``fence.i`` and checkpoint
        serialisation both route through here, clearing the decode cache
        and any registered translation caches so no stale executor — and
        no unpicklable compiled closure — can survive.
        """
        self._decode_cache.clear()
        for cache in self._code_caches:
            cache.drop_all()

    def flush_decode_cache(self) -> None:
        """Historical spelling of :meth:`drop_code_caches`."""
        self.drop_code_caches()

    def step(self) -> Instruction:
        """Execute one instruction; returns the decoded instruction.

        ``hart.accesses`` afterwards holds the data accesses performed.
        Raises a :class:`Trap` subclass for ecall/ebreak/illegal.
        """
        pc = self.pc
        instr, fn = self._decode_entry(pc)
        self.accesses.clear()
        self._pc_next = pc + 4
        fn(self, instr)
        self.pc = self._pc_next
        self.instret += 1
        return instr


# ---------------------------------------------------------------------------
# Scalar integer executors
# ---------------------------------------------------------------------------

@executor("lui")
def _lui(hart: Hart, instr: Instruction) -> None:
    hart.write_reg(instr.rd, instr.imm)


@executor("auipc")
def _auipc(hart: Hart, instr: Instruction) -> None:
    hart.write_reg(instr.rd, hart.pc + instr.imm)


@executor("jal")
def _jal(hart: Hart, instr: Instruction) -> None:
    hart.write_reg(instr.rd, hart.pc + 4)
    hart._pc_next = (hart.pc + instr.imm) & MASK64


@executor("jalr")
def _jalr(hart: Hart, instr: Instruction) -> None:
    target = (hart.regs[instr.rs1] + instr.imm) & ~1 & MASK64
    hart.write_reg(instr.rd, hart.pc + 4)
    hart._pc_next = target


_BRANCH_TESTS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: to_signed(a) < to_signed(b),
    "bge": lambda a, b: to_signed(a) >= to_signed(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}


@executor(*_BRANCH_TESTS)
def _branch(hart: Hart, instr: Instruction) -> None:
    if _BRANCH_TESTS[instr.mnemonic](hart.regs[instr.rs1],
                                     hart.regs[instr.rs2]):
        hart._pc_next = (hart.pc + instr.imm) & MASK64


_LOAD_SIZES = {"lb": (1, True), "lh": (2, True), "lw": (4, True),
               "ld": (8, True), "lbu": (1, False), "lhu": (2, False),
               "lwu": (4, False)}


@executor(*_LOAD_SIZES)
def _load(hart: Hart, instr: Instruction) -> None:
    size, signed = _LOAD_SIZES[instr.mnemonic]
    address = (hart.regs[instr.rs1] + instr.imm) & MASK64
    hart.write_reg(instr.rd, hart.load_int(address, size, signed))


_STORE_SIZES = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}


@executor(*_STORE_SIZES)
def _store(hart: Hart, instr: Instruction) -> None:
    size = _STORE_SIZES[instr.mnemonic]
    address = (hart.regs[instr.rs1] + instr.imm) & MASK64
    hart.store_int(address, hart.regs[instr.rs2], size)


@executor("addi")
def _addi(hart: Hart, instr: Instruction) -> None:
    hart.write_reg(instr.rd, hart.regs[instr.rs1] + instr.imm)


@executor("slti")
def _slti(hart: Hart, instr: Instruction) -> None:
    hart.write_reg(instr.rd,
                   1 if to_signed(hart.regs[instr.rs1]) < instr.imm else 0)


@executor("sltiu")
def _sltiu(hart: Hart, instr: Instruction) -> None:
    hart.write_reg(instr.rd,
                   1 if hart.regs[instr.rs1] < (instr.imm & MASK64) else 0)


@executor("xori")
def _xori(hart: Hart, instr: Instruction) -> None:
    hart.write_reg(instr.rd, hart.regs[instr.rs1] ^ (instr.imm & MASK64))


@executor("ori")
def _ori(hart: Hart, instr: Instruction) -> None:
    hart.write_reg(instr.rd, hart.regs[instr.rs1] | (instr.imm & MASK64))


@executor("andi")
def _andi(hart: Hart, instr: Instruction) -> None:
    hart.write_reg(instr.rd, hart.regs[instr.rs1] & (instr.imm & MASK64))


@executor("slli")
def _slli(hart: Hart, instr: Instruction) -> None:
    hart.write_reg(instr.rd, hart.regs[instr.rs1] << instr.shamt)


@executor("srli")
def _srli(hart: Hart, instr: Instruction) -> None:
    hart.write_reg(instr.rd, hart.regs[instr.rs1] >> instr.shamt)


@executor("srai")
def _srai(hart: Hart, instr: Instruction) -> None:
    hart.write_reg(instr.rd, to_signed(hart.regs[instr.rs1]) >> instr.shamt)


@executor("addiw")
def _addiw(hart: Hart, instr: Instruction) -> None:
    hart.write_reg(instr.rd,
                   sign_extend(hart.regs[instr.rs1] + instr.imm, 32))


@executor("slliw")
def _slliw(hart: Hart, instr: Instruction) -> None:
    hart.write_reg(instr.rd,
                   sign_extend(hart.regs[instr.rs1] << instr.shamt, 32))


@executor("srliw")
def _srliw(hart: Hart, instr: Instruction) -> None:
    hart.write_reg(
        instr.rd,
        sign_extend((hart.regs[instr.rs1] & MASK32) >> instr.shamt, 32))


@executor("sraiw")
def _sraiw(hart: Hart, instr: Instruction) -> None:
    value = sign_extend(hart.regs[instr.rs1], 32) >> instr.shamt
    hart.write_reg(instr.rd, sign_extend(value, 32))


def _div(a: int, b: int) -> int:
    if b == 0:
        return -1
    if a == -(1 << 63) and b == -1:
        return a
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _rem(a: int, b: int) -> int:
    if b == 0:
        return a
    if a == -(1 << 63) and b == -1:
        return 0
    return a - _div(a, b) * b


_OP_FUNCS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "sll": lambda a, b: a << (b & 63),
    "slt": lambda a, b: 1 if to_signed(a) < to_signed(b) else 0,
    "sltu": lambda a, b: 1 if a < b else 0,
    "xor": lambda a, b: a ^ b,
    "srl": lambda a, b: a >> (b & 63),
    "sra": lambda a, b: to_signed(a) >> (b & 63),
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "mul": lambda a, b: a * b,
    "mulh": lambda a, b: (to_signed(a) * to_signed(b)) >> 64,
    "mulhsu": lambda a, b: (to_signed(a) * b) >> 64,
    "mulhu": lambda a, b: (a * b) >> 64,
    "div": lambda a, b: _div(to_signed(a), to_signed(b)),
    "divu": lambda a, b: (a // b) if b else MASK64,
    "rem": lambda a, b: _rem(to_signed(a), to_signed(b)),
    "remu": lambda a, b: (a % b) if b else a,
}


@executor(*_OP_FUNCS)
def _op(hart: Hart, instr: Instruction) -> None:
    result = _OP_FUNCS[instr.mnemonic](hart.regs[instr.rs1],
                                       hart.regs[instr.rs2])
    hart.write_reg(instr.rd, result)


_OP32_FUNCS = {
    "addw": lambda a, b: a + b,
    "subw": lambda a, b: a - b,
    "sllw": lambda a, b: a << (b & 31),
    "srlw": lambda a, b: (a & MASK32) >> (b & 31),
    "sraw": lambda a, b: sign_extend(a, 32) >> (b & 31),
    "mulw": lambda a, b: a * b,
    "divw": lambda a, b: _div(sign_extend(a, 32), sign_extend(b, 32)),
    "divuw": lambda a, b: ((a & MASK32) // (b & MASK32)) if (b & MASK32)
    else MASK64,
    "remw": lambda a, b: _rem(sign_extend(a, 32), sign_extend(b, 32)),
    "remuw": lambda a, b: ((a & MASK32) % (b & MASK32)) if (b & MASK32)
    else (a & MASK32),
}


@executor(*_OP32_FUNCS)
def _op32(hart: Hart, instr: Instruction) -> None:
    result = _OP32_FUNCS[instr.mnemonic](hart.regs[instr.rs1],
                                         hart.regs[instr.rs2])
    hart.write_reg(instr.rd, sign_extend(result, 32))


# ---------------------------------------------------------------------------
# System executors
# ---------------------------------------------------------------------------

@executor("ecall")
def _ecall(hart: Hart, instr: Instruction) -> None:
    raise EnvironmentCall(hart.pc)


@executor("ebreak")
def _ebreak(hart: Hart, instr: Instruction) -> None:
    raise Breakpoint(hart.pc)


@executor("fence")
def _fence(hart: Hart, instr: Instruction) -> None:
    return None


@executor("fence.i")
def _fence_i(hart: Hart, instr: Instruction) -> None:
    hart.drop_code_caches()


@executor("wfi")
def _wfi(hart: Hart, instr: Instruction) -> None:
    return None


@executor("mret")
def _mret(hart: Hart, instr: Instruction) -> None:
    hart._pc_next = hart.read_csr(csrdef.MEPC)


@executor("csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci")
def _csr(hart: Hart, instr: Instruction) -> None:
    mnemonic = instr.mnemonic
    old = hart.read_csr(instr.csr)
    operand = instr.imm if mnemonic.endswith("i") else hart.regs[instr.rs1]
    if mnemonic.startswith("csrrw"):
        hart.write_csr(instr.csr, operand)
    elif mnemonic.startswith("csrrs"):
        if operand:
            hart.write_csr(instr.csr, old | operand)
    else:  # csrrc
        if operand:
            hart.write_csr(instr.csr, old & ~operand)
    hart.write_reg(instr.rd, old)


# ---------------------------------------------------------------------------
# Atomics
# ---------------------------------------------------------------------------

def _amo_size(mnemonic: str) -> int:
    return 4 if mnemonic.endswith(".w") else 8


@executor("lr.w", "lr.d")
def _lr(hart: Hart, instr: Instruction) -> None:
    size = _amo_size(instr.mnemonic)
    address = hart.regs[instr.rs1]
    hart.reservation = address
    hart.write_reg(instr.rd, hart.load_int(address, size, signed=True))


@executor("sc.w", "sc.d")
def _sc(hart: Hart, instr: Instruction) -> None:
    size = _amo_size(instr.mnemonic)
    address = hart.regs[instr.rs1]
    if hart.reservation == address:
        hart.store_int(address, hart.regs[instr.rs2], size)
        hart.write_reg(instr.rd, 0)
    else:
        hart.write_reg(instr.rd, 1)
    hart.reservation = None


_AMO_FUNCS = {
    "amoswap": lambda old, val: val,
    "amoadd": lambda old, val: old + val,
    "amoxor": lambda old, val: old ^ val,
    "amoand": lambda old, val: old & val,
    "amoor": lambda old, val: old | val,
    "amomin": lambda old, val: min(old, val, key=lambda v: v),
    "amomax": lambda old, val: max(old, val, key=lambda v: v),
    "amominu": min,
    "amomaxu": max,
}


@executor(*[f"{base}.{sz}" for base in _AMO_FUNCS for sz in ("w", "d")])
def _amo(hart: Hart, instr: Instruction) -> None:
    base, _, _size_name = instr.mnemonic.rpartition(".")
    size = _amo_size(instr.mnemonic)
    width = 8 * size
    address = hart.regs[instr.rs1]
    old_raw = hart.load_int(address, size)
    value_raw = hart.regs[instr.rs2] & ((1 << width) - 1)
    if base in ("amomin", "amomax"):
        old_cmp, value_cmp = sign_extend(old_raw, width), \
            sign_extend(value_raw, width)
        result = min(old_cmp, value_cmp) if base == "amomin" \
            else max(old_cmp, value_cmp)
    else:
        result = _AMO_FUNCS[base](old_raw, value_raw)
    hart.store_int(address, result, size)
    hart.write_reg(instr.rd, sign_extend(old_raw, width))


# ---------------------------------------------------------------------------
# Scalar FP executors (double-precision plus the float32 subset)
# ---------------------------------------------------------------------------

@executor("fld")
def _fld(hart: Hart, instr: Instruction) -> None:
    address = (hart.regs[instr.rs1] + instr.imm) & MASK64
    hart.fregs[instr.rd] = hart.load_f64(address)


@executor("fsd")
def _fsd(hart: Hart, instr: Instruction) -> None:
    address = (hart.regs[instr.rs1] + instr.imm) & MASK64
    hart.store_f64(address, hart.fregs[instr.rs2])


@executor("flw")
def _flw(hart: Hart, instr: Instruction) -> None:
    address = (hart.regs[instr.rs1] + instr.imm) & MASK64
    raw = hart.load_int(address, 4)
    hart.fregs[instr.rd] = bits_to_f32(raw)


@executor("fsw")
def _fsw(hart: Hart, instr: Instruction) -> None:
    address = (hart.regs[instr.rs1] + instr.imm) & MASK64
    hart.store_int(address, f32_to_bits(hart.fregs[instr.rs2]), 4)


def fp_div(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        sign = -1.0 if (a < 0) != (math.copysign(1.0, b) < 0) else 1.0
        return sign * math.inf
    return a / b


def fp_min(a: float, b: float) -> float:
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    if a == 0.0 and b == 0.0:  # -0.0 is the minimum
        return a if math.copysign(1.0, a) < 0 else b
    return min(a, b)


def fp_max(a: float, b: float) -> float:
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    if a == 0.0 and b == 0.0:
        return a if math.copysign(1.0, a) > 0 else b
    return max(a, b)


def fp_sgnj(a: float, b: float) -> float:
    """Copy b's sign onto a's magnitude."""
    if math.isnan(a):
        return math.nan
    return math.copysign(abs(a), b)


def fp_sgnjx(a: float, b: float) -> float:
    """Result sign is the XOR of both operand signs, on a's magnitude."""
    if math.isnan(a):
        return math.nan
    negative = (math.copysign(1.0, a) < 0) != (math.copysign(1.0, b) < 0)
    return math.copysign(abs(a), -1.0 if negative else 1.0)


_FP_BIN_D = {
    "fadd.d": lambda a, b: a + b,
    "fsub.d": lambda a, b: a - b,
    "fmul.d": lambda a, b: a * b,
    "fdiv.d": fp_div,
    "fmin.d": fp_min,
    "fmax.d": fp_max,
    "fsgnj.d": fp_sgnj,
    "fsgnjn.d": lambda a, b: fp_sgnj(a, -b),
    "fsgnjx.d": fp_sgnjx,
}


@executor(*_FP_BIN_D)
def _fp_bin_d(hart: Hart, instr: Instruction) -> None:
    hart.fregs[instr.rd] = _FP_BIN_D[instr.mnemonic](
        hart.fregs[instr.rs1], hart.fregs[instr.rs2])


_FP_BIN_S = {
    "fadd.s": lambda a, b: a + b,
    "fsub.s": lambda a, b: a - b,
    "fmul.s": lambda a, b: a * b,
    "fdiv.s": fp_div,
    "fmin.s": fp_min,
    "fmax.s": fp_max,
    "fsgnj.s": _FP_BIN_D["fsgnj.d"],
    "fsgnjn.s": _FP_BIN_D["fsgnjn.d"],
    "fsgnjx.s": _FP_BIN_D["fsgnjx.d"],
}


@executor(*_FP_BIN_S)
def _fp_bin_s(hart: Hart, instr: Instruction) -> None:
    result = _FP_BIN_S[instr.mnemonic](hart.fregs[instr.rs1],
                                       hart.fregs[instr.rs2])
    hart.fregs[instr.rd] = round_f32(result)


@executor("fsqrt.d")
def _fsqrt_d(hart: Hart, instr: Instruction) -> None:
    value = hart.fregs[instr.rs1]
    hart.fregs[instr.rd] = math.sqrt(value) if value >= 0 else math.nan


@executor("fsqrt.s")
def _fsqrt_s(hart: Hart, instr: Instruction) -> None:
    value = hart.fregs[instr.rs1]
    hart.fregs[instr.rd] = round_f32(
        math.sqrt(value) if value >= 0 else math.nan)


_FMA_FUNCS = {
    "fmadd": lambda a, b, c: a * b + c,
    "fmsub": lambda a, b, c: a * b - c,
    "fnmadd": lambda a, b, c: -(a * b) - c,
    "fnmsub": lambda a, b, c: -(a * b) + c,
}


@executor(*[f"{base}.{sz}" for base in _FMA_FUNCS for sz in ("s", "d")])
def _fma(hart: Hart, instr: Instruction) -> None:
    base, _, size = instr.mnemonic.rpartition(".")
    result = _FMA_FUNCS[base](hart.fregs[instr.rs1], hart.fregs[instr.rs2],
                              hart.fregs[instr.rs3])
    if size == "s":
        result = round_f32(result)
    hart.fregs[instr.rd] = result


_FP_CMP_FUNCS = {
    "feq": lambda a, b: a == b,
    "flt": lambda a, b: a < b,
    "fle": lambda a, b: a <= b,
}


@executor(*[f"{base}.{sz}" for base in _FP_CMP_FUNCS for sz in ("s", "d")])
def _fp_cmp(hart: Hart, instr: Instruction) -> None:
    base = instr.mnemonic[:3]
    a, b = hart.fregs[instr.rs1], hart.fregs[instr.rs2]
    if math.isnan(a) or math.isnan(b):
        hart.write_reg(instr.rd, 0)
    else:
        hart.write_reg(instr.rd, 1 if _FP_CMP_FUNCS[base](a, b) else 0)


def _fcvt_to_int(value: float, width: int, signed: bool) -> int:
    if math.isnan(value):
        return (1 << (width - 1)) - 1 if signed else (1 << width) - 1
    truncated = math.trunc(value) if math.isfinite(value) else value
    if signed:
        low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
    else:
        low, high = 0, (1 << width) - 1
    if truncated == math.inf or truncated > high:
        return high
    if truncated == -math.inf or truncated < low:
        return low
    return int(truncated)


_FCVT_TO_INT = {
    "fcvt.w.d": (32, True), "fcvt.wu.d": (32, False),
    "fcvt.l.d": (64, True), "fcvt.lu.d": (64, False),
    "fcvt.w.s": (32, True), "fcvt.wu.s": (32, False),
    "fcvt.l.s": (64, True), "fcvt.lu.s": (64, False),
}


@executor(*_FCVT_TO_INT)
def _fcvt_int(hart: Hart, instr: Instruction) -> None:
    width, signed = _FCVT_TO_INT[instr.mnemonic]
    result = _fcvt_to_int(hart.fregs[instr.rs1], width, signed)
    hart.write_reg(instr.rd, sign_extend(result & ((1 << width) - 1),
                                         width) & MASK64
                   if width == 32 else result & MASK64)


_FCVT_FROM_INT = {
    "fcvt.d.w": (32, True, False), "fcvt.d.wu": (32, False, False),
    "fcvt.d.l": (64, True, False), "fcvt.d.lu": (64, False, False),
    "fcvt.s.w": (32, True, True), "fcvt.s.wu": (32, False, True),
    "fcvt.s.l": (64, True, True), "fcvt.s.lu": (64, False, True),
}


@executor(*_FCVT_FROM_INT)
def _fcvt_float(hart: Hart, instr: Instruction) -> None:
    width, signed, single = _FCVT_FROM_INT[instr.mnemonic]
    raw = hart.regs[instr.rs1] & ((1 << width) - 1)
    value = float(sign_extend(raw, width) if signed else raw)
    hart.fregs[instr.rd] = round_f32(value) if single else value


@executor("fcvt.s.d")
def _fcvt_s_d(hart: Hart, instr: Instruction) -> None:
    hart.fregs[instr.rd] = round_f32(hart.fregs[instr.rs1])


@executor("fcvt.d.s")
def _fcvt_d_s(hart: Hart, instr: Instruction) -> None:
    hart.fregs[instr.rd] = hart.fregs[instr.rs1]


@executor("fmv.x.d")
def _fmv_x_d(hart: Hart, instr: Instruction) -> None:
    hart.write_reg(instr.rd, f64_to_bits(hart.fregs[instr.rs1]))


@executor("fmv.d.x")
def _fmv_d_x(hart: Hart, instr: Instruction) -> None:
    hart.fregs[instr.rd] = bits_to_f64(hart.regs[instr.rs1])


@executor("fmv.x.w")
def _fmv_x_w(hart: Hart, instr: Instruction) -> None:
    raw = f32_to_bits(hart.fregs[instr.rs1])
    hart.write_reg(instr.rd, sign_extend(raw, 32) & MASK64)


@executor("fmv.w.x")
def _fmv_w_x(hart: Hart, instr: Instruction) -> None:
    hart.fregs[instr.rd] = bits_to_f32(hart.regs[instr.rs1])


@executor("fclass.d", "fclass.s")
def _fclass(hart: Hart, instr: Instruction) -> None:
    value = hart.fregs[instr.rs1]
    if math.isnan(value):
        result = 1 << 9  # quiet NaN
    elif value == math.inf:
        result = 1 << 7
    elif value == -math.inf:
        result = 1 << 0
    elif value == 0.0:
        result = 1 << 4 if math.copysign(1.0, value) > 0 else 1 << 3
    elif value > 0:
        result = 1 << 6
    else:
        result = 1 << 1
    hart.write_reg(instr.rd, result)


# Vector executors register themselves into EXEC on import.
from repro.spike import vector as _vector  # noqa: E402,F401
