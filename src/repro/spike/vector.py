"""RVV-subset vector executors.

Registered into :data:`repro.spike.hart.EXEC` on import.  The model follows
RVV 1.0 semantics for the subset the kernels need: vset{i}vl{i}, unit-stride
/ strided / indexed loads and stores, integer and FP arithmetic (including
multiply-accumulate), reductions, masks, merges, slides and gathers.

Each instruction runs over whole register groups, not element by element.
Elements are stored little-endian in the hart's flat register file
``Hart.vrf``, where register ``r`` starts at byte ``r * vlenb``, so an
LMUL > 1 group is one contiguous span.  An executor reads each operand
group with one cached ``struct.Struct("<{vl}{code}")`` ``unpack_from``,
applies its op to every element in one list comprehension, and writes
``vd`` back with one ``pack_into``.  The invariants:

* Masks and tails: the ``v0`` mask is decoded once per instruction into
  the indices of the active elements.  Only active elements below ``vl``
  are computed and written, so inactive elements and the tail keep their
  old bits (mask-undisturbed, tail-undisturbed).
* FP bits: SEW 32/64 elements go through the ``<Nf``/``<Nd`` formats,
  which use the same conversions as ``bits_to_f32``, ``round_f32`` and
  ``f32_to_bits``, so results are bit-identical to converting element by
  element.
* Unit-stride memory moves ``[base, base + vl * eew)`` with one
  ``SparseMemory.load_bytes``/``store_bytes``, yet records one
  ``MemAccess`` per element in element order, so the L1 sees the same
  line sequence.  Loads allocate no pages; a store that overlaps a
  decoded code page invalidates the whole stored range.
* Strided, indexed and masked unit-stride accesses keep per-element
  addresses, but read or write the register group once.
"""

from __future__ import annotations

import struct
from itertools import repeat

from repro.isa.decoder import Instruction
from repro.isa.vtype import VType
from repro.spike.hart import (
    EXEC,
    Hart,
    MemAccess,
    Trap,
    executor,
    fp_div,
    fp_max,
    fp_min,
    fp_sgnj,
    fp_sgnjx,
)
from repro.soc.memory import PAGE_BITS
from repro.utils.bitops import MASK64, sign_extend

_SEWS = (8, 16, 32, 64)
# struct codes of an element, by SEW.
_INT = {8: "B", 16: "H", 32: "I", 64: "Q"}
_FP = {32: "f", 64: "d"}


class VectorConfigError(Trap):
    """Raised when a vector instruction runs under an unusable vtype."""

    def __init__(self, pc: int, reason: str):
        super().__init__(f"vector configuration error: {reason}", pc)


# ---------------------------------------------------------------------------
# Register groups
# ---------------------------------------------------------------------------

_LAYOUTS: dict[tuple[int, str], struct.Struct] = {}


def _layout(count: int, code: str) -> struct.Struct:
    """The little-endian layout of ``count`` elements of struct ``code``."""
    layout = _LAYOUTS.get((count, code))
    if layout is None:
        layout = _LAYOUTS[count, code] = struct.Struct(f"<{count}{code}")
    return layout


def _read(hart: Hart, reg: int, code: str, count: int) -> tuple:
    """The first ``count`` elements of the group starting at ``reg``."""
    return _layout(count, code).unpack_from(hart.vrf, reg * hart.vlenb)


def _write(hart: Hart, reg: int, code: str, values,
           lanes: list[int] | None) -> None:
    """Write ``values`` to elements ``lanes`` of the group at ``reg``;
    ``lanes`` None means elements ``0 .. len(values) - 1``."""
    offset = reg * hart.vlenb
    if lanes is None:
        _layout(len(values), code).pack_into(hart.vrf, offset, *values)
        return
    one = _layout(1, code)
    size = one.size
    vrf = hart.vrf
    for index, value in zip(lanes, values):
        one.pack_into(vrf, offset + index * size, value)


def _mask_bits(hart: Hart, reg: int, count: int) -> int:
    """The first ``count`` bits of mask register ``reg``, as an int."""
    start = reg * hart.vlenb
    return int.from_bytes(hart.vrf[start:start + ((count + 7) >> 3)],
                          "little")


def _lanes(hart: Hart, instr: Instruction) -> list[int] | None:
    """Indices of the active elements below vl; None when unmasked."""
    if instr.vm:
        return None
    vl = hart.vl
    bits = _mask_bits(hart, 0, vl)
    return [i for i in range(vl) if bits >> i & 1]


def _indices(hart: Hart, lanes: list[int] | None):
    return range(hart.vl) if lanes is None else lanes


def _pick(values, lanes: list[int] | None):
    return values if lanes is None else [values[i] for i in lanes]


def _write_mask(hart: Hart, reg: int, results,
                lanes: list[int] | None) -> None:
    """Set the mask bits of ``reg`` at ``lanes`` (default: all below vl)
    to ``results``; every other bit keeps its value."""
    vl = hart.vl
    written = value = 0
    for index, result in zip(_indices(hart, lanes), results):
        written |= 1 << index
        if result:
            value |= 1 << index
    start = reg * hart.vlenb
    count = (vl + 7) >> 3
    old = _mask_bits(hart, reg, vl)
    hart.vrf[start:start + count] = \
        (old & ~written | value).to_bytes(count, "little")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@executor("vsetvli")
def _vsetvli(hart: Hart, instr: Instruction) -> None:
    vtype = VType.decode(instr.imm)
    _apply_vset(hart, instr, vtype, avl_reg=instr.rs1)


@executor("vsetivli")
def _vsetivli(hart: Hart, instr: Instruction) -> None:
    vtype = VType.decode(instr.imm)
    new_vl = hart.set_vl(instr.shamt, vtype)
    hart.write_reg(instr.rd, new_vl)


@executor("vsetvl")
def _vsetvl(hart: Hart, instr: Instruction) -> None:
    vtype = VType.decode(hart.regs[instr.rs2])
    _apply_vset(hart, instr, vtype, avl_reg=instr.rs1)


def _apply_vset(hart: Hart, instr: Instruction, vtype: VType,
                avl_reg: int) -> None:
    if avl_reg != 0:
        avl = hart.regs[avl_reg]
    elif instr.rd != 0:
        avl = (1 << 62)  # AVL = ~0: request VLMAX
    else:
        avl = hart.vl  # keep vl, change vtype only
    new_vl = hart.set_vl(avl, vtype)
    hart.write_reg(instr.rd, new_vl)


def _require_vconfig(hart: Hart) -> int:
    if hart.vtype.vill:
        raise VectorConfigError(hart.pc, "vtype is vill")
    return hart.vtype.sew


# ---------------------------------------------------------------------------
# Loads and stores
# ---------------------------------------------------------------------------

def _unit_stride(hart: Hart, instr: Instruction, eew: int,
                 is_load: bool) -> None:
    _require_vconfig(hart)
    base = hart.regs[instr.rs1]
    step = eew // 8
    length = hart.vl * step
    if not instr.vm or base + length > 1 << 64:
        # Masked, or the addresses wrap at 2**64: element by element.
        _element_move(hart, instr, eew,
                      [(base + offset) & MASK64
                       for offset in range(0, length, step)], is_load)
        return
    hart.accesses.extend([MemAccess(address, step, not is_load)
                          for address in range(base, base + length, step)])
    start = instr.rd * hart.vlenb
    if is_load:
        hart.vrf[start:start + length] = hart.memory.load_bytes(base, length)
        return
    hart.memory.store_bytes(base, hart.vrf[start:start + length])
    pages = hart._code_pages
    if length and any(page in pages for page in range(
            base >> PAGE_BITS, ((base + length - 1) >> PAGE_BITS) + 1)):
        hart.code_registry.note_store(base, length)


def _element_move(hart: Hart, instr: Instruction, eew: int,
                  addresses: list[int], is_load: bool) -> None:
    """Move element ``i`` of ``vd`` to or from ``addresses[i]``, for the
    active elements, reading or writing the register group once."""
    lanes = _lanes(hart, instr)
    addresses = _pick(addresses, lanes)
    step = eew // 8
    code = _INT[eew]
    if is_load:
        _write(hart, instr.rd, code,
               [hart.load_int(address, step) for address in addresses],
               lanes)
        return
    values = _pick(_read(hart, instr.rd, code, hart.vl), lanes)
    for address, value in zip(addresses, values):
        hart.store_int(address, value, step)


def _strided(hart: Hart, instr: Instruction, eew: int,
             is_load: bool) -> None:
    _require_vconfig(hart)
    base = hart.regs[instr.rs1]
    stride = sign_extend(hart.regs[instr.rs2], 64)
    _element_move(hart, instr, eew,
                  [(base + i * stride) & MASK64 for i in range(hart.vl)],
                  is_load)


def _indexed(hart: Hart, instr: Instruction, index_eew: int,
             is_load: bool) -> None:
    sew = _require_vconfig(hart)
    base = hart.regs[instr.rs1]
    offsets = _read(hart, instr.rs2, _INT[index_eew], hart.vl)
    _element_move(hart, instr, sew,
                  [(base + offset) & MASK64 for offset in offsets], is_load)


def _register_vector_memops() -> None:
    for eew in _SEWS:
        for move, loads, stores in (
                (_unit_stride, ("vle",), ("vse",)),
                (_strided, ("vlse",), ("vsse",)),
                (_indexed, ("vluxei", "vloxei"), ("vsuxei", "vsoxei"))):
            for names, is_load in ((loads, True), (stores, False)):
                def vexec(hart, instr, move=move, eew=eew, is_load=is_load):
                    move(hart, instr, eew, is_load)
                for name in names:
                    EXEC[f"{name}{eew}.v"] = vexec


_register_vector_memops()


# ---------------------------------------------------------------------------
# Integer arithmetic
# ---------------------------------------------------------------------------

_V_INT_BINOPS = {
    "vadd": lambda a, b, sew: a + b,
    "vsub": lambda a, b, sew: a - b,
    "vrsub": lambda a, b, sew: b - a,
    "vand": lambda a, b, sew: a & b,
    "vor": lambda a, b, sew: a | b,
    "vxor": lambda a, b, sew: a ^ b,
    "vsll": lambda a, b, sew: a << (b & (sew - 1)),
    "vsrl": lambda a, b, sew: a >> (b & (sew - 1)),
    "vsra": lambda a, b, sew: sign_extend(a, sew) >> (b & (sew - 1)),
    "vmin": lambda a, b, sew: min(sign_extend(a, sew), sign_extend(b, sew)),
    "vminu": lambda a, b, sew: min(a, b),
    "vmax": lambda a, b, sew: max(sign_extend(a, sew), sign_extend(b, sew)),
    "vmaxu": lambda a, b, sew: max(a, b),
    "vmul": lambda a, b, sew: a * b,
    "vmulh": lambda a, b, sew:
        (sign_extend(a, sew) * sign_extend(b, sew)) >> sew,
    "vmulhu": lambda a, b, sew: (a * b) >> sew,
    "vmulhsu": lambda a, b, sew: (sign_extend(a, sew) * b) >> sew,
    "vdivu": lambda a, b, sew: (a // b) if b else (1 << sew) - 1,
    "vremu": lambda a, b, sew: (a % b) if b else a,
}


def _signed_div(a: int, b: int, sew: int) -> int:
    sa, sb = sign_extend(a, sew), sign_extend(b, sew)
    if sb == 0:
        return -1
    if sa == -(1 << (sew - 1)) and sb == -1:
        return sa
    quotient = abs(sa) // abs(sb)
    return -quotient if (sa < 0) != (sb < 0) else quotient


def _signed_rem(a: int, b: int, sew: int) -> int:
    sa, sb = sign_extend(a, sew), sign_extend(b, sew)
    if sb == 0:
        return sa
    return sa - _signed_div(a, b, sew) * sb


_V_INT_BINOPS["vdiv"] = _signed_div
_V_INT_BINOPS["vrem"] = _signed_rem


def _int_operand(hart: Hart, instr: Instruction, kind: str, sew: int,
                 lanes: list[int] | None):
    """The second source: vs1's elements (``kind`` "v"), or rs1 ("x") or
    the immediate ("i") repeated."""
    if kind == "v":
        return _pick(_read(hart, instr.rs1, _INT[sew], hart.vl), lanes)
    scalar = hart.regs[instr.rs1] if kind == "x" else instr.imm
    return repeat(scalar & ((1 << sew) - 1))


def _register_int_binops() -> None:
    for base, fn in _V_INT_BINOPS.items():
        for shape in ("vv", "vx", "vi"):
            def vexec(hart, instr, fn=fn, kind=shape[1]):
                sew = _require_vconfig(hart)
                code = _INT[sew]
                mask = (1 << sew) - 1
                lanes = _lanes(hart, instr)
                vs2 = _pick(_read(hart, instr.rs2, code, hart.vl), lanes)
                op1 = _int_operand(hart, instr, kind, sew, lanes)
                _write(hart, instr.rd, code,
                       [fn(a, b, sew) & mask for a, b in zip(vs2, op1)],
                       lanes)
            EXEC[f"{base}.{shape}"] = vexec


_register_int_binops()


_V_MACC = {
    # result = fn(vd, vs1/rs1, vs2)
    "vmacc": lambda vd, op1, vs2: vd + op1 * vs2,
    "vnmsac": lambda vd, op1, vs2: vd - op1 * vs2,
    "vmadd": lambda vd, op1, vs2: vd * op1 + vs2,
    "vnmsub": lambda vd, op1, vs2: vs2 - vd * op1,
}


def _register_int_macc() -> None:
    for base, fn in _V_MACC.items():
        for shape in ("vv", "vx"):
            def vexec(hart, instr, fn=fn, kind=shape[1]):
                sew = _require_vconfig(hart)
                code = _INT[sew]
                mask = (1 << sew) - 1
                lanes = _lanes(hart, instr)
                vd = _pick(_read(hart, instr.rd, code, hart.vl), lanes)
                op1 = _int_operand(hart, instr, kind, sew, lanes)
                vs2 = _pick(_read(hart, instr.rs2, code, hart.vl), lanes)
                _write(hart, instr.rd, code,
                       [fn(d, a, b) & mask
                        for d, a, b in zip(vd, op1, vs2)], lanes)
            EXEC[f"{base}.{shape}"] = vexec


_register_int_macc()


_V_INT_COMPARES = {
    "vmseq": lambda a, b, sew: a == b,
    "vmsne": lambda a, b, sew: a != b,
    "vmsltu": lambda a, b, sew: a < b,
    "vmslt": lambda a, b, sew: sign_extend(a, sew) < sign_extend(b, sew),
    "vmsleu": lambda a, b, sew: a <= b,
    "vmsle": lambda a, b, sew: sign_extend(a, sew) <= sign_extend(b, sew),
    "vmsgtu": lambda a, b, sew: a > b,
    "vmsgt": lambda a, b, sew: sign_extend(a, sew) > sign_extend(b, sew),
}


def _register_int_compares() -> None:
    for base, fn in _V_INT_COMPARES.items():
        for shape in ("vv", "vx", "vi"):
            def vexec(hart, instr, fn=fn, kind=shape[1]):
                sew = _require_vconfig(hart)
                lanes = _lanes(hart, instr)
                vs2 = _pick(_read(hart, instr.rs2, _INT[sew], hart.vl),
                            lanes)
                op1 = _int_operand(hart, instr, kind, sew, lanes)
                _write_mask(hart, instr.rd,
                            [fn(a, b, sew) for a, b in zip(vs2, op1)], lanes)
            EXEC[f"{base}.{shape}"] = vexec


_register_int_compares()


_V_REDUCTIONS = {
    "vredsum": lambda acc, v, sew: acc + v,
    "vredand": lambda acc, v, sew: acc & v,
    "vredor": lambda acc, v, sew: acc | v,
    "vredxor": lambda acc, v, sew: acc ^ v,
    "vredminu": lambda acc, v, sew: min(acc, v),
    "vredmaxu": lambda acc, v, sew: max(acc, v),
    "vredmin": lambda acc, v, sew:
        min(sign_extend(acc, sew), sign_extend(v, sew)),
    "vredmax": lambda acc, v, sew:
        max(sign_extend(acc, sew), sign_extend(v, sew)),
}


def _register_int_reductions() -> None:
    for base, fn in _V_REDUCTIONS.items():
        def vexec(hart, instr, fn=fn):
            sew = _require_vconfig(hart)
            if not hart.vl:  # RVV 1.0: vd is not updated when vl = 0
                return
            code = _INT[sew]
            mask = (1 << sew) - 1
            acc = _read(hart, instr.rs1, code, 1)[0]
            for value in _pick(_read(hart, instr.rs2, code, hart.vl),
                               _lanes(hart, instr)):
                acc = fn(acc, value, sew) & mask
            _write(hart, instr.rd, code, [acc], None)
        EXEC[f"{base}.vs"] = vexec


_register_int_reductions()


# ---------------------------------------------------------------------------
# Moves, merges, slides, gathers, vid/viota
# ---------------------------------------------------------------------------

@executor("vmv.v.v")
def _vmv_v_v(hart: Hart, instr: Instruction) -> None:
    sew = _require_vconfig(hart)
    length = hart.vl * sew // 8
    source = instr.rs1 * hart.vlenb
    target = instr.rd * hart.vlenb
    hart.vrf[target:target + length] = hart.vrf[source:source + length]


@executor("vmv.v.x", "vmv.v.i")
def _vmv_v_scalar(hart: Hart, instr: Instruction) -> None:
    sew = _require_vconfig(hart)
    scalar = hart.regs[instr.rs1] if instr.mnemonic == "vmv.v.x" \
        else instr.imm
    _write(hart, instr.rd, _INT[sew],
           [scalar & ((1 << sew) - 1)] * hart.vl, None)


@executor("vmv.x.s")
def _vmv_x_s(hart: Hart, instr: Instruction) -> None:
    sew = _require_vconfig(hart)
    hart.write_reg(instr.rd,
                   sign_extend(_read(hart, instr.rs2, _INT[sew], 1)[0], sew)
                   & MASK64)


@executor("vmv.s.x")
def _vmv_s_x(hart: Hart, instr: Instruction) -> None:
    sew = _require_vconfig(hart)
    if hart.vl > 0:
        _write(hart, instr.rd, _INT[sew],
               [hart.regs[instr.rs1] & ((1 << sew) - 1)], None)


@executor("vid.v")
def _vid(hart: Hart, instr: Instruction) -> None:
    sew = _require_vconfig(hart)
    lanes = _lanes(hart, instr)
    mask = (1 << sew) - 1
    _write(hart, instr.rd, _INT[sew],
           [i & mask for i in _indices(hart, lanes)], lanes)


@executor("viota.m")
def _viota(hart: Hart, instr: Instruction) -> None:
    sew = _require_vconfig(hart)
    lanes = _lanes(hart, instr)
    mask = (1 << sew) - 1
    source = _mask_bits(hart, instr.rs2, hart.vl)
    values = []
    count = 0
    for i in _indices(hart, lanes):
        values.append(count & mask)
        count += source >> i & 1
    _write(hart, instr.rd, _INT[sew], values, lanes)


def _merge(hart: Hart, instr: Instruction, sew: int, op1) -> None:
    """vd[i] = op1[i] where v0 bit i is set, else vs2[i], for i < vl."""
    code = _INT[sew]
    bits = _mask_bits(hart, 0, hart.vl)
    vs2 = _read(hart, instr.rs2, code, hart.vl)
    _write(hart, instr.rd, code,
           [b if bits >> i & 1 else a
            for i, (a, b) in enumerate(zip(vs2, op1))], None)


def _register_merges() -> None:
    for shape in ("vvm", "vxm", "vim"):
        def vexec(hart, instr, kind=shape[1]):
            sew = _require_vconfig(hart)
            _merge(hart, instr, sew,
                   _int_operand(hart, instr, kind, sew, None))
        EXEC[f"vmerge.{shape}"] = vexec


_register_merges()


def _offset(hart: Hart, instr: Instruction) -> int:
    return (hart.regs[instr.rs1] if instr.mnemonic.endswith(".vx")
            else instr.imm)


@executor("vslideup.vx", "vslideup.vi")
def _vslideup(hart: Hart, instr: Instruction) -> None:
    sew = _require_vconfig(hart)
    offset = _offset(hart, instr)
    lanes = _lanes(hart, instr)
    vs2 = _read(hart, instr.rs2, _INT[sew], hart.vl)
    targets = [i for i in _indices(hart, lanes) if i >= offset]
    _write(hart, instr.rd, _INT[sew], [vs2[i - offset] for i in targets],
           targets)


@executor("vslidedown.vx", "vslidedown.vi")
def _vslidedown(hart: Hart, instr: Instruction) -> None:
    sew = _require_vconfig(hart)
    offset = _offset(hart, instr)
    lanes = _lanes(hart, instr)
    vlmax = hart.vlmax()
    vs2 = _read(hart, instr.rs2, _INT[sew], vlmax)
    _write(hart, instr.rd, _INT[sew],
           [vs2[i + offset] if i + offset < vlmax else 0
            for i in _indices(hart, lanes)], lanes)


@executor("vrgather.vv", "vrgather.vx", "vrgather.vi")
def _vrgather(hart: Hart, instr: Instruction) -> None:
    sew = _require_vconfig(hart)
    lanes = _lanes(hart, instr)
    vlmax = hart.vlmax()
    vs2 = _read(hart, instr.rs2, _INT[sew], vlmax)
    if instr.mnemonic.endswith(".vv"):
        indices = _pick(_read(hart, instr.rs1, _INT[sew], hart.vl), lanes)
    else:
        indices = [_offset(hart, instr)] * (hart.vl if lanes is None
                                            else len(lanes))
    _write(hart, instr.rd, _INT[sew],
           [vs2[j] if j < vlmax else 0 for j in indices], lanes)


# ---------------------------------------------------------------------------
# Floating-point
# ---------------------------------------------------------------------------

def _fp_sew(hart: Hart) -> int:
    sew = _require_vconfig(hart)
    if sew not in (32, 64):
        raise VectorConfigError(hart.pc, f"FP vector op at SEW={sew}")
    return sew


def _fp_operand(hart: Hart, instr: Instruction, shape: str, sew: int,
                lanes: list[int] | None):
    """vs1's elements (.vv), or the scalar f[rs1] repeated (.vf)."""
    if shape == "vv":
        return _pick(_read(hart, instr.rs1, _FP[sew], hart.vl), lanes)
    return repeat(hart.fregs[instr.rs1])


_V_FP_BINOPS = {
    "vfadd": lambda a, b: a + b,
    "vfsub": lambda a, b: a - b,
    "vfmul": lambda a, b: a * b,
    "vfdiv": fp_div,
    "vfmin": fp_min,
    "vfmax": fp_max,
    "vfsgnj": fp_sgnj,
    "vfsgnjn": lambda a, b: fp_sgnj(a, -b),
    "vfsgnjx": fp_sgnjx,
}


def _register_fp_binops() -> None:
    for base, fn in _V_FP_BINOPS.items():
        for shape in ("vv", "vf"):
            def vexec(hart, instr, fn=fn, shape=shape):
                sew = _fp_sew(hart)
                lanes = _lanes(hart, instr)
                vs2 = _pick(_read(hart, instr.rs2, _FP[sew], hart.vl), lanes)
                op1 = _fp_operand(hart, instr, shape, sew, lanes)
                _write(hart, instr.rd, _FP[sew],
                       [fn(a, b) for a, b in zip(vs2, op1)], lanes)
            EXEC[f"{base}.{shape}"] = vexec


_register_fp_binops()


_V_FP_MACC = {
    # result = fn(vd, op1, vs2) matching RVV operand roles
    "vfmacc": lambda vd, op1, vs2: op1 * vs2 + vd,
    "vfnmacc": lambda vd, op1, vs2: -(op1 * vs2) - vd,
    "vfmsac": lambda vd, op1, vs2: op1 * vs2 - vd,
    "vfnmsac": lambda vd, op1, vs2: -(op1 * vs2) + vd,
    "vfmadd": lambda vd, op1, vs2: vd * op1 + vs2,
    "vfnmadd": lambda vd, op1, vs2: -(vd * op1) - vs2,
    "vfmsub": lambda vd, op1, vs2: vd * op1 - vs2,
    "vfnmsub": lambda vd, op1, vs2: -(vd * op1) + vs2,
}


def _register_fp_macc() -> None:
    for base, fn in _V_FP_MACC.items():
        for shape in ("vv", "vf"):
            def vexec(hart, instr, fn=fn, shape=shape):
                sew = _fp_sew(hart)
                code = _FP[sew]
                lanes = _lanes(hart, instr)
                vd = _pick(_read(hart, instr.rd, code, hart.vl), lanes)
                op1 = _fp_operand(hart, instr, shape, sew, lanes)
                vs2 = _pick(_read(hart, instr.rs2, code, hart.vl), lanes)
                _write(hart, instr.rd, code,
                       [fn(d, a, b) for d, a, b in zip(vd, op1, vs2)],
                       lanes)
            EXEC[f"{base}.{shape}"] = vexec


_register_fp_macc()


# Python's float comparisons are IEEE: any NaN operand makes every one of
# them false except "!=", which is what vmfne must return.
_V_FP_COMPARES = {
    "vmfeq": lambda a, b: a == b,
    "vmfne": lambda a, b: a != b,
    "vmflt": lambda a, b: a < b,
    "vmfle": lambda a, b: a <= b,
}


def _register_fp_compares() -> None:
    for base, fn in _V_FP_COMPARES.items():
        for shape in ("vv", "vf"):
            def vexec(hart, instr, fn=fn, shape=shape):
                sew = _fp_sew(hart)
                lanes = _lanes(hart, instr)
                vs2 = _pick(_read(hart, instr.rs2, _FP[sew], hart.vl), lanes)
                op1 = _fp_operand(hart, instr, shape, sew, lanes)
                _write_mask(hart, instr.rd,
                            [fn(a, b) for a, b in zip(vs2, op1)], lanes)
            EXEC[f"{base}.{shape}"] = vexec


_register_fp_compares()


_V_FP_REDUCTIONS = {
    "vfredosum": lambda acc, v: acc + v,
    "vfredusum": lambda acc, v: acc + v,
    "vfredmin": fp_min,
    "vfredmax": fp_max,
}


def _register_fp_reductions() -> None:
    for base, fn in _V_FP_REDUCTIONS.items():
        def vexec(hart, instr, fn=fn):
            sew = _fp_sew(hart)
            if not hart.vl:  # RVV 1.0: vd is not updated when vl = 0
                return
            code = _FP[sew]
            acc = _read(hart, instr.rs1, code, 1)[0]
            for value in _pick(_read(hart, instr.rs2, code, hart.vl),
                               _lanes(hart, instr)):
                acc = fn(acc, value)
            _write(hart, instr.rd, code, [acc], None)
        EXEC[f"{base}.vs"] = vexec


_register_fp_reductions()


@executor("vfmv.v.f")
def _vfmv_v_f(hart: Hart, instr: Instruction) -> None:
    sew = _fp_sew(hart)
    _write(hart, instr.rd, _FP[sew], [hart.fregs[instr.rs1]] * hart.vl,
           None)


@executor("vfmv.f.s")
def _vfmv_f_s(hart: Hart, instr: Instruction) -> None:
    sew = _fp_sew(hart)
    hart.fregs[instr.rd] = _read(hart, instr.rs2, _FP[sew], 1)[0]


@executor("vfmv.s.f")
def _vfmv_s_f(hart: Hart, instr: Instruction) -> None:
    sew = _fp_sew(hart)
    if hart.vl > 0:
        _write(hart, instr.rd, _FP[sew], [hart.fregs[instr.rs1]], None)


@executor("vfmerge.vfm")
def _vfmerge(hart: Hart, instr: Instruction) -> None:
    # Merged as raw bits, so vs2's elements (NaN payloads included) are
    # copied untouched; only the scalar goes through the FP format.
    sew = _fp_sew(hart)
    bits = _layout(1, _FP[sew]).pack(hart.fregs[instr.rs1])
    _merge(hart, instr, sew, repeat(_layout(1, _INT[sew]).unpack(bits)[0]))
