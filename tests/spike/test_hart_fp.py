"""Functional tests of scalar floating-point execution."""

import math
import struct

import pytest

from tests.conftest import make_hart, run_until_ebreak


def run_body(body: str, doubles: dict[str, float] | None = None):
    """Run a body with optional named .double data cells."""
    data_lines = []
    for name, value in (doubles or {}).items():
        data_lines.append(f"{name}: .double {value!r}")
    data = ".data\n.align 3\nresult: .zero 64\n" + "\n".join(data_lines)
    hart = make_hart(f".text\n_start:\n{body}\n    ebreak\n{data}\n")
    run_until_ebreak(hart)
    return hart


class TestLoadsStores:
    def test_fld(self):
        hart = run_body("la a0, x\nfld fa0, 0(a0)", doubles={"x": 2.5})
        assert hart.fregs[10] == 2.5

    def test_fsd_roundtrip(self):
        hart = run_body("""
    la a0, x
    fld fa0, 0(a0)
    la a1, result
    fsd fa0, 0(a1)
    fld fa1, 0(a1)
""", doubles={"x": -1.25})
        assert hart.fregs[11] == -1.25

    def test_flw_fsw(self):
        hart = run_body("""
    la a0, result
    li a1, 0x40490FDB
    sw a1, 0(a0)
    flw fa0, 0(a0)
    fsw fa0, 8(a0)
    lwu a2, 8(a0)
""")
        assert hart.fregs[10] == pytest.approx(math.pi, rel=1e-6)
        assert hart.regs[12] == 0x40490FDB


class TestArithmetic:
    def test_basic_ops(self):
        hart = run_body("""
    la a0, x
    fld fa0, 0(a0)
    la a0, y
    fld fa1, 0(a0)
    fadd.d fa2, fa0, fa1
    fsub.d fa3, fa0, fa1
    fmul.d fa4, fa0, fa1
    fdiv.d fa5, fa0, fa1
""", doubles={"x": 6.0, "y": 1.5})
        assert hart.fregs[12] == 7.5
        assert hart.fregs[13] == 4.5
        assert hart.fregs[14] == 9.0
        assert hart.fregs[15] == 4.0

    def test_fmadd(self):
        hart = run_body("""
    la a0, x
    fld fa0, 0(a0)
    la a0, y
    fld fa1, 0(a0)
    la a0, z
    fld fa2, 0(a0)
    fmadd.d fa3, fa0, fa1, fa2
    fmsub.d fa4, fa0, fa1, fa2
    fnmadd.d fa5, fa0, fa1, fa2
    fnmsub.d fa6, fa0, fa1, fa2
""", doubles={"x": 2.0, "y": 3.0, "z": 1.0})
        assert hart.fregs[13] == 7.0
        assert hart.fregs[14] == 5.0
        assert hart.fregs[15] == -7.0
        assert hart.fregs[16] == -5.0

    def test_fsqrt(self):
        hart = run_body("la a0, x\nfld fa0, 0(a0)\nfsqrt.d fa1, fa0",
                        doubles={"x": 9.0})
        assert hart.fregs[11] == 3.0

    def test_fsqrt_negative_is_nan(self):
        hart = run_body("la a0, x\nfld fa0, 0(a0)\nfsqrt.d fa1, fa0",
                        doubles={"x": -1.0})
        assert math.isnan(hart.fregs[11])

    def test_fdiv_by_zero_gives_inf(self):
        hart = run_body("""
    la a0, x
    fld fa0, 0(a0)
    fmv.d.x fa1, zero
    fdiv.d fa2, fa0, fa1
""", doubles={"x": 1.0})
        assert hart.fregs[12] == math.inf

    def test_fmin_fmax(self):
        hart = run_body("""
    la a0, x
    fld fa0, 0(a0)
    la a0, y
    fld fa1, 0(a0)
    fmin.d fa2, fa0, fa1
    fmax.d fa3, fa0, fa1
""", doubles={"x": -3.0, "y": 2.0})
        assert hart.fregs[12] == -3.0
        assert hart.fregs[13] == 2.0

    def test_sign_injection(self):
        hart = run_body("""
    la a0, x
    fld fa0, 0(a0)
    fneg.d fa1, fa0
    fabs.d fa2, fa1
    fmv.d  fa3, fa1
""", doubles={"x": 4.0})
        assert hart.fregs[11] == -4.0
        assert hart.fregs[12] == 4.0
        assert hart.fregs[13] == -4.0


class TestCompareAndClassify:
    def test_compares(self):
        hart = run_body("""
    la a0, x
    fld fa0, 0(a0)
    la a0, y
    fld fa1, 0(a0)
    feq.d a1, fa0, fa1
    flt.d a2, fa0, fa1
    fle.d a3, fa0, fa0
""", doubles={"x": 1.0, "y": 2.0})
        assert hart.regs[11] == 0
        assert hart.regs[12] == 1
        assert hart.regs[13] == 1

    def test_nan_compares_false(self):
        hart = run_body("""
    la a0, x
    fld fa0, 0(a0)
    fsqrt.d fa1, fa0      # NaN
    feq.d a1, fa1, fa1
    flt.d a2, fa1, fa1
""", doubles={"x": -1.0})
        assert hart.regs[11] == 0 and hart.regs[12] == 0

    def test_fclass(self):
        hart = run_body("""
    la a0, x
    fld fa0, 0(a0)
    fclass.d a1, fa0
    fneg.d fa1, fa0
    fclass.d a2, fa1
""", doubles={"x": 2.0})
        assert hart.regs[11] == 1 << 6  # positive normal
        assert hart.regs[12] == 1 << 1  # negative normal


class TestConversionsAndMoves:
    def test_int_to_double(self):
        hart = run_body("li a0, -7\nfcvt.d.l fa0, a0")
        assert hart.fregs[10] == -7.0

    def test_double_to_int_truncates(self):
        hart = run_body("la a0, x\nfld fa0, 0(a0)\nfcvt.l.d a1, fa0",
                        doubles={"x": -2.75})
        assert hart.regs[11] == (-2) & 0xFFFF_FFFF_FFFF_FFFF

    def test_unsigned_conversion_clamps(self):
        hart = run_body("la a0, x\nfld fa0, 0(a0)\nfcvt.lu.d a1, fa0",
                        doubles={"x": -5.0})
        assert hart.regs[11] == 0

    def test_w_conversion_saturates(self):
        hart = run_body("la a0, x\nfld fa0, 0(a0)\nfcvt.w.d a1, fa0",
                        doubles={"x": 1e300})
        assert hart.regs[11] == 0x7FFF_FFFF

    def test_fmv_bitcast(self):
        hart = run_body("la a0, x\nfld fa0, 0(a0)\nfmv.x.d a1, fa0\n"
                        "fmv.d.x fa1, a1", doubles={"x": 1.5})
        assert hart.regs[11] == struct.unpack("<Q",
                                              struct.pack("<d", 1.5))[0]
        assert hart.fregs[11] == 1.5

    def test_single_double_conversion(self):
        hart = run_body("""
    la a0, x
    fld fa0, 0(a0)
    fcvt.s.d fa1, fa0
    fcvt.d.s fa2, fa1
""", doubles={"x": 0.1})
        # 0.1 is not exactly representable in binary32.
        assert hart.fregs[12] == pytest.approx(0.1, rel=1e-7)
        assert hart.fregs[12] != 0.1

    def test_fcvt_w_sign_extends_result(self):
        hart = run_body("la a0, x\nfld fa0, 0(a0)\nfcvt.w.d a1, fa0",
                        doubles={"x": -1.0})
        assert hart.regs[11] == 0xFFFF_FFFF_FFFF_FFFF


class TestSinglePrecision:
    def test_fadd_s_rounds_to_f32(self):
        hart = run_body("""
    la a0, result
    li a1, 0x3F800001       # float32 just above 1.0
    sw a1, 0(a0)
    flw fa0, 0(a0)
    fadd.s fa1, fa0, fa0
""")
        expected = struct.unpack("<f", struct.pack("<I", 0x3F800001))[0]
        assert hart.fregs[11] == pytest.approx(2 * expected, rel=1e-7)

    def test_fadd_s_overflow_rounds_to_infinity(self):
        # 2**127 + 2**127 is finite as a double but beyond float32:
        # round-to-nearest gives +inf (and -inf for the negated sum).
        hart = run_body("""
    li a1, 0x7f000000
    fmv.w.x fa0, a1
    fadd.s fa1, fa0, fa0
    fmv.x.w a2, fa1
    fneg.s fa2, fa0
    fadd.s fa3, fa2, fa2
    fmv.x.w a3, fa3
""")
        assert hart.fregs[11] == math.inf
        assert hart.regs[12] == 0x7F800000
        assert hart.regs[13] == 0xFFFF_FFFF_FF80_0000

    def test_f32_conversions_saturate_like_round_to_nearest(self):
        from repro.spike.hart import f32_to_bits, round_f32

        flt_max = struct.unpack("<f", struct.pack("<I", 0x7F7FFFFF))[0]
        # Below the halfway point to 2**128 the value rounds to FLT_MAX;
        # at or past it, to infinity.
        assert round_f32(3.4028235e38) == flt_max
        assert round_f32(2.0 ** 128) == math.inf
        assert round_f32(-1e300) == -math.inf
        assert f32_to_bits(1e39) == 0x7F800000
        assert f32_to_bits(-1e39) == 0xFF800000
