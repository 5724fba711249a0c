"""Differential testing of the vector unit against numpy semantics.

For every integer vector binop, at every SEW, hypothesis generates
random operand vectors; the expected result is computed with numpy
fixed-width arrays (an independent implementation of the semantics).
FP ops are checked at SEW 64 against float64 numpy arithmetic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_hart, run_until_ebreak

VLEN = 256

_DTYPES = {8: (np.uint8, np.int8), 16: (np.uint16, np.int16),
           32: (np.uint32, np.int32), 64: (np.uint64, np.int64)}


def _np_vector_op(op: str, a: np.ndarray, b: np.ndarray,
                  sew: int) -> np.ndarray:
    unsigned, signed = _DTYPES[sew]
    ua, ub = a.astype(unsigned), b.astype(unsigned)
    sa, sb = ua.astype(signed), ub.astype(signed)
    shift = (ub & unsigned(sew - 1)).astype(unsigned)
    with np.errstate(over="ignore"):
        if op == "vadd":
            return (ua + ub).astype(unsigned)
        if op == "vsub":
            return (ua - ub).astype(unsigned)
        if op == "vmul":
            return (ua * ub).astype(unsigned)
        if op == "vand":
            return ua & ub
        if op == "vor":
            return ua | ub
        if op == "vxor":
            return ua ^ ub
        if op == "vsll":
            return (ua << shift).astype(unsigned)
        if op == "vsrl":
            return (ua >> shift).astype(unsigned)
        if op == "vsra":
            return (sa >> shift.astype(signed)).astype(unsigned)
        if op == "vmin":
            return np.minimum(sa, sb).astype(unsigned)
        if op == "vminu":
            return np.minimum(ua, ub)
        if op == "vmax":
            return np.maximum(sa, sb).astype(unsigned)
        if op == "vmaxu":
            return np.maximum(ua, ub)
        if op == "vmulhu":
            wide = ua.astype(object) * ub.astype(object)
            return np.array([int(x) >> sew for x in wide],
                            dtype=unsigned)
        if op == "vmulh":
            wide = sa.astype(object) * sb.astype(object)
            return np.array([(int(x) >> sew) & ((1 << sew) - 1)
                             for x in wide], dtype=unsigned)
    raise AssertionError(op)


_ELEMENT = st.integers(min_value=0, max_value=(1 << 64) - 1)
_OPS = ["vadd", "vsub", "vmul", "vand", "vor", "vxor", "vsll", "vsrl",
        "vsra", "vmin", "vminu", "vmax", "vmaxu", "vmulh", "vmulhu"]


def _run_vector_binop(op, sew, a_values, b_values):
    count = len(a_values)
    elem_bytes = sew // 8
    mask = (1 << sew) - 1

    def emit(label, values):
        lines = [f"{label}:"]
        for value in values:
            directive = {1: ".byte", 2: ".half", 4: ".word",
                         8: ".dword"}[elem_bytes]
            lines.append(f"    {directive} {value & mask}")
        return "\n".join(lines) + "\n"

    source = f""".text
_start:
    li   a2, {count}
    vsetvli a1, a2, e{sew}, m1, ta, ma
    la   a0, va
    vle{sew}.v v1, (a0)
    la   a0, vb
    vle{sew}.v v2, (a0)
    {op}.vv v3, v1, v2
    la   a0, vout
    vse{sew}.v v3, (a0)
    ebreak
.data
.align 3
{emit('va', a_values)}
.align 3
{emit('vb', b_values)}
.align 3
vout: .zero {count * elem_bytes}
"""
    hart = make_hart(source, vlen_bits=VLEN)
    run_until_ebreak(hart)
    out_address = hart.program_symbols["vout"]
    raw = hart.memory.load_bytes(out_address, count * elem_bytes)
    unsigned, _signed = _DTYPES[sew]
    return np.frombuffer(raw, dtype=unsigned)


@pytest.mark.parametrize("sew", [8, 16, 32, 64])
@pytest.mark.parametrize("op", _OPS)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_vector_binop_matches_numpy(op, sew, data):
    unsigned, _signed = _DTYPES[sew]
    count = data.draw(st.integers(min_value=1,
                                  max_value=VLEN // sew))
    a_values = data.draw(st.lists(_ELEMENT, min_size=count,
                                  max_size=count))
    b_values = data.draw(st.lists(_ELEMENT, min_size=count,
                                  max_size=count))
    mask = (1 << sew) - 1
    a = np.array([value & mask for value in a_values], dtype=unsigned)
    b = np.array([value & mask for value in b_values], dtype=unsigned)
    actual = _run_vector_binop(op, sew, a_values, b_values)
    expected = _np_vector_op(op, a, b, sew)
    assert np.array_equal(actual, expected), \
        f"{op}.vv e{sew}: {actual} != {expected} (a={a}, b={b})"


class TestVectorFpDifferential:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-1e10, max_value=1e10,
                              allow_nan=False),
                    min_size=1, max_size=4),
           st.lists(st.floats(min_value=-1e10, max_value=1e10,
                              allow_nan=False),
                    min_size=1, max_size=4),
           st.sampled_from(["vfadd", "vfsub", "vfmul", "vfmin",
                            "vfmax"]))
    def test_fp_binop_matches_numpy(self, a_list, b_list, op):
        count = min(len(a_list), len(b_list))
        a = np.array(a_list[:count])
        b = np.array(b_list[:count])
        reference = {"vfadd": a + b, "vfsub": a - b, "vfmul": a * b,
                     "vfmin": np.minimum(a, b),
                     "vfmax": np.maximum(a, b)}[op]
        source = f""".text
_start:
    li   a2, {count}
    vsetvli a1, a2, e64, m1, ta, ma
    la   a0, va
    vle64.v v1, (a0)
    la   a0, vb
    vle64.v v2, (a0)
    {op}.vv v3, v1, v2
    la   a0, vout
    vse64.v v3, (a0)
    ebreak
.data
.align 3
va: .double {', '.join(repr(float(x)) for x in a)}
vb: .double {', '.join(repr(float(x)) for x in b)}
vout: .zero {8 * count}
"""
        hart = make_hart(source, vlen_bits=VLEN)
        run_until_ebreak(hart)
        raw = hart.memory.load_bytes(hart.program_symbols["vout"],
                                     8 * count)
        actual = np.frombuffer(raw, dtype=np.float64)
        assert np.array_equal(actual, reference)


# ---------------------------------------------------------------------------
# Masks, LMUL groups and tails
# ---------------------------------------------------------------------------

_DIRECTIVES = {8: ".byte", 16: ".half", 32: ".word", 64: ".dword"}


def _run_group_op(mnemonic, sew, lmul, count, old, a, b, mask=None):
    """Run ``mnemonic`` (a .vv op) on LMUL-``lmul`` groups at vl=count.

    ``old``, ``a`` and ``b`` are VLMAX raw element values: vd's group
    starts as ``old``; ``mask`` (VLEN bits as bytes) goes to v0 and makes
    the op masked.  Returns vd's whole group, as raw values, afterwards.
    """
    masked = mask is not None

    def emit(label, values):
        body = ", ".join(str(int(value)) for value in values) or "0"
        return f".align 3\n{label}:\n    {_DIRECTIVES[sew]} {body}\n"

    vtype = f"e{sew}, m{lmul}, tu, mu"
    source = f""".text
_start:
    vsetvli t0, zero, e8, m1, ta, ma
    la   a0, vmask
    vle8.v v0, (a0)
    vsetvli t0, zero, {vtype}
    la   a0, vold
    vle{sew}.v v4, (a0)
    la   a0, va
    vle{sew}.v v8, (a0)
    la   a0, vb
    vle{sew}.v v12, (a0)
    li   a2, {count}
    vsetvli a1, a2, {vtype}
    {mnemonic} v4, v8, v12{', v0.t' if masked else ''}
    vsetvli t0, zero, {vtype}
    la   a0, vout
    vse{sew}.v v4, (a0)
    ebreak
.data
{emit('vold', old)}{emit('va', a)}{emit('vb', b)}
.align 3
vmask:
    .byte {', '.join(str(byte) for byte in (mask or bytes(VLEN // 8)))}
.align 3
vout: .zero {len(old) * sew // 8}
"""
    hart = make_hart(source, vlen_bits=VLEN)
    run_until_ebreak(hart)
    raw = hart.memory.load_bytes(hart.program_symbols["vout"],
                                 len(old) * sew // 8)
    return np.frombuffer(raw, dtype=_DTYPES[sew][0])


def _active(count, vlmax, mask):
    """Which of the VLMAX elements an op at vl=count may write."""
    active = np.arange(vlmax) < count
    if mask is not None:
        bits = np.unpackbits(np.frombuffer(mask, dtype=np.uint8),
                             bitorder="little")[:vlmax]
        active &= bits.astype(bool)
    return active


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_masked_grouped_tail_binop_matches_numpy(data):
    """Masked or not, at LMUL 1/2/4 and any vl in [0, VLMAX]: active
    elements get numpy's result, inactive and tail elements keep vd's."""
    op = data.draw(st.sampled_from(_OPS))
    sew = data.draw(st.sampled_from([8, 16, 32, 64]))
    lmul = data.draw(st.sampled_from([1, 2, 4]))
    vlmax = VLEN * lmul // sew
    count = data.draw(st.integers(min_value=0, max_value=vlmax))
    unsigned = _DTYPES[sew][0]
    mask_bits = (1 << sew) - 1

    def vector():
        values = data.draw(st.lists(_ELEMENT, min_size=vlmax,
                                    max_size=vlmax))
        return np.array([value & mask_bits for value in values],
                        dtype=unsigned)

    old, a, b = vector(), vector(), vector()
    mask = data.draw(st.one_of(st.none(), st.binary(min_size=VLEN // 8,
                                                    max_size=VLEN // 8)))
    actual = _run_group_op(f"{op}.vv", sew, lmul, count, old, a, b, mask)
    expected = np.where(_active(count, vlmax, mask),
                        _np_vector_op(op, a, b, sew), old)
    assert np.array_equal(actual, expected), \
        f"{op}.vv e{sew} m{lmul} vl={count} masked={mask is not None}"


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_masked_grouped_tail_fp_matches_numpy(data):
    op = data.draw(st.sampled_from(["vfadd", "vfsub", "vfmul"]))
    sew = data.draw(st.sampled_from([32, 64]))
    lmul = data.draw(st.sampled_from([1, 2, 4]))
    vlmax = VLEN * lmul // sew
    count = data.draw(st.integers(min_value=0, max_value=vlmax))
    ftype = np.float32 if sew == 32 else np.float64

    def vector():
        return np.array(data.draw(st.lists(
            st.floats(min_value=-1e6, max_value=1e6, width=sew),
            min_size=vlmax, max_size=vlmax)), dtype=ftype)

    old, a, b = vector(), vector(), vector()
    mask = data.draw(st.one_of(st.none(), st.binary(min_size=VLEN // 8,
                                                    max_size=VLEN // 8)))
    unsigned = _DTYPES[sew][0]
    actual = _run_group_op(f"{op}.vv", sew, lmul, count, old.view(unsigned),
                           a.view(unsigned), b.view(unsigned),
                           mask).view(ftype)
    result = {"vfadd": a + b, "vfsub": a - b, "vfmul": a * b}[op]
    expected = np.where(_active(count, vlmax, mask), result, old)
    assert np.array_equal(actual.view(unsigned), expected.view(unsigned))


# ---------------------------------------------------------------------------
# SEW-32 FP bit patterns
# ---------------------------------------------------------------------------

_F32_PATTERNS = [
    0x7F800001,  # signalling NaN, payload 1
    0xFFBFFFFF,  # negative signalling NaN, full payload
    0x7FC12345,  # quiet NaN with a payload
    0x7F800000,  # +inf
    0xFF800000,  # -inf
    0x80000000,  # -0.0
    0x00000001,  # smallest denormal
    0x3F800000,  # 1.0
    0xC0490FDB,  # -pi
]


@pytest.mark.parametrize("op", ["vfadd", "vfsub", "vfmul", "vfsgnj",
                                "vfsgnjx", "vfmin", "vfmax"])
def test_sew32_nan_patterns_bit_exact(op):
    """Active elements match the scalar conversion routines bit for bit;
    inactive and tail elements keep signalling-NaN bits untouched."""
    from repro.spike.hart import bits_to_f32, f32_to_bits, round_f32
    from repro.spike.vector import _V_FP_BINOPS

    lmul, sew = 2, 32
    vlmax = VLEN * lmul // sew
    count = vlmax - 3
    patterns = np.array(_F32_PATTERNS, dtype=np.uint32)
    a = np.resize(patterns, vlmax)
    b = np.roll(a, 4)
    old = np.full(vlmax, 0x7F800002, dtype=np.uint32)
    mask = bytes([0b10110111] * (VLEN // 8))
    actual = _run_group_op(f"{op}.vv", sew, lmul, count, old, a, b, mask)
    fn = _V_FP_BINOPS[op]
    active = _active(count, vlmax, mask)
    expected = [
        f32_to_bits(round_f32(fn(bits_to_f32(int(x)), bits_to_f32(int(y)))))
        if active[i] else int(old[i])
        for i, (x, y) in enumerate(zip(a, b))]
    assert [hex(value) for value in actual] == \
        [hex(value) for value in expected]
