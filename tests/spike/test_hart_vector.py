"""Functional tests of the RVV-subset vector unit."""

import struct

import pytest

from repro.spike.vector import VectorConfigError
from repro.utils.bitops import to_unsigned

from tests.conftest import make_hart, run_until_ebreak

VLEN = 256  # test harts use VLEN=256 -> 4 x e64 per register


def run_body(body: str, data: str = "", vlen_bits: int = VLEN):
    source = (f".text\n_start:\n{body}\n    ebreak\n"
              f".data\n.align 3\nvresult: .zero 256\n{data}\n")
    hart = make_hart(source, vlen_bits=vlen_bits)
    run_until_ebreak(hart)
    return hart


def velems(hart, reg, count, sew=64):
    return [hart.read_velem(reg, i, sew) for i in range(count)]


def vfelems(hart, reg, count):
    return list(struct.unpack_from(f"<{count}d", hart.vrf, reg * hart.vlenb))


class TestConfiguration:
    def test_vsetvli_grants_avl(self):
        hart = run_body("li a0, 3\nvsetvli a1, a0, e64, m1, ta, ma")
        assert hart.regs[11] == 3 and hart.vl == 3

    def test_vsetvli_caps_at_vlmax(self):
        hart = run_body("li a0, 100\nvsetvli a1, a0, e64, m1, ta, ma")
        assert hart.regs[11] == 4  # VLEN=256 / 64

    def test_vlmax_request_via_x0(self):
        hart = run_body("vsetvli a1, zero, e32, m1, ta, ma")
        assert hart.regs[11] == 8

    def test_lmul_expands_vlmax(self):
        hart = run_body("li a0, 100\nvsetvli a1, a0, e64, m4, ta, ma")
        assert hart.regs[11] == 16

    def test_vsetivli(self):
        hart = run_body("vsetivli a1, 2, e64, m1, ta, ma")
        assert hart.regs[11] == 2

    def test_vl_vtype_csrs(self):
        hart = run_body("""
    li a0, 3
    vsetvli a1, a0, e32, m2, ta, ma
    csrr a2, vl
    csrr a3, vtype
    csrr a4, vlenb
""")
        assert hart.regs[12] == 3
        from repro.isa.vtype import VType
        vtype = VType.decode(hart.regs[13])
        assert vtype.sew == 32 and int(vtype.lmul) == 2
        assert hart.regs[14] == VLEN // 8

    def test_vector_op_without_config_traps(self):
        hart = make_hart(".text\n_start:\nvadd.vv v1, v2, v3\n")
        with pytest.raises(VectorConfigError):
            hart.step()

    @pytest.mark.parametrize("memop", ["vle64.v v1, (a0)",
                                       "vse64.v v1, (a0)",
                                       "vlse64.v v1, (a0), a1",
                                       "vsse64.v v1, (a0), a1"])
    def test_vector_memop_without_config_traps(self, memop):
        hart = make_hart(f".text\n_start:\nla a0, buf\n{memop}\n"
                         f".data\nbuf: .dword 7\n")
        hart.step()
        hart.step()  # la
        with pytest.raises(VectorConfigError):
            hart.step()
        assert hart.accesses == []


class TestIntegerOps:
    def test_vid_vadd(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vadd.vi v2, v1, 10
""")
        assert velems(hart, 2, 4) == [10, 11, 12, 13]

    def test_vadd_vx(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    li a2, 100
    vadd.vx v2, v1, a2
""")
        assert velems(hart, 2, 4) == [100, 101, 102, 103]

    def test_vmul_and_vmacc(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vmv.v.i v2, 3
    vmul.vv v3, v1, v2        # 0 3 6 9
    vmv.v.i v4, 1
    vmacc.vv v4, v1, v2       # 1 + i*3
""")
        assert velems(hart, 3, 4) == [0, 3, 6, 9]
        assert velems(hart, 4, 4) == [1, 4, 7, 10]

    def test_vrsub_vi(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vrsub.vi v2, v1, 3        # 3 - i
""")
        assert velems(hart, 2, 4) == [3, 2, 1, 0]

    def test_signed_ops_at_sew32(self):
        hart = run_body("""
    vsetvli a1, zero, e32, m1, ta, ma
    vid.v v1
    vrsub.vi v2, v1, 0        # -i
    li a2, -1
    vmax.vx v3, v2, zero      # max(-i, 0) = 0
    vmin.vx v4, v2, a2        # min(-i, -1)
""")
        assert velems(hart, 3, 4, sew=32) == [0, 0, 0, 0]
        expected = [to_unsigned(min(-i, -1), 32) for i in range(4)]
        assert velems(hart, 4, 4, sew=32) == expected

    def test_shifts(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vsll.vi v2, v1, 4
""")
        assert velems(hart, 2, 4) == [0, 16, 32, 48]

    def test_vdiv_vrem(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vadd.vi v1, v1, 7         # 7 8 9 10
    li a2, 3
    vdiv.vx v2, v1, a2
    vrem.vx v3, v1, a2
""")
        assert velems(hart, 2, 4) == [2, 2, 3, 3]
        assert velems(hart, 3, 4) == [1, 2, 0, 1]

    def test_reduction_sum(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vmv.v.i v2, 0
    vredsum.vs v3, v1, v2
    vmv.x.s a0, v3
""")
        assert hart.regs[10] == 0 + 1 + 2 + 3

    def test_reduction_max(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vmv.v.i v2, 0
    vredmax.vs v3, v1, v2
    vmv.x.s a0, v3
""")
        assert hart.regs[10] == 3

    @pytest.mark.parametrize("op", ["vredsum", "vredmax", "vredand"])
    def test_reduction_at_vl0_leaves_vd(self, op):
        hart = run_body(f"""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vmv.v.i v2, 0
    li a2, 5
    vmv.s.x v3, a2
    li a3, 0
    vsetvli a1, a3, e64, m1, ta, ma
    {op}.vs v3, v1, v2
""")
        assert hart.vl == 0
        assert hart.read_velem(3, 0, 64) == 5


class TestMasks:
    def test_compare_writes_mask_bits(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vmsgt.vi v0, v1, 1        # mask = i > 1
    vmv.v.i v2, 0
    li a2, 100
    vadd.vx v2, v1, a2, v0.t
""")
        assert velems(hart, 2, 4) == [0, 0, 102, 103]

    def test_vmerge(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vmsgt.vi v0, v1, 1
    vmv.v.i v2, 7
    li a2, 55
    vmerge.vxm v3, v2, a2, v0
""")
        assert velems(hart, 3, 4) == [7, 7, 55, 55]

    def test_viota(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vmsgt.vi v2, v1, 0        # 0 1 1 1
    viota.m v3, v2
""")
        assert velems(hart, 3, 4) == [0, 0, 1, 2]

    def test_masked_vid(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vmsgt.vi v0, v1, 1
    vmv.v.i v2, -1
    vid.v v2, v0.t
""")
        ones = to_unsigned(-1)
        assert velems(hart, 2, 4) == [ones, ones, 2, 3]


class TestSlidesAndGather:
    def test_slidedown(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vslidedown.vi v2, v1, 1
""")
        assert velems(hart, 2, 4) == [1, 2, 3, 0]

    def test_slideup(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vmv.v.i v2, 9
    vslideup.vi v2, v1, 2
""")
        assert velems(hart, 2, 4) == [9, 9, 0, 1]

    def test_vrgather(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vadd.vi v1, v1, 10        # 10 11 12 13
    vrsub.vi v2, v1, 13       # reverse indices 3 2 1 0 ... careful
    vid.v v2
    vrsub.vi v2, v2, 3        # 3 2 1 0
    vrgather.vv v3, v1, v2
""")
        assert velems(hart, 3, 4) == [13, 12, 11, 10]

    def test_vrgather_out_of_range_zero(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vadd.vi v1, v1, 5
    li a2, 99
    vrgather.vx v3, v1, a2
""")
        assert velems(hart, 3, 4) == [0, 0, 0, 0]


class TestMemoryOps:
    DATA = """
vin:
    .dword 10, 20, 30, 40, 50, 60, 70, 80
"""

    def test_unit_stride_load_store(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    la a0, vin
    vle64.v v1, (a0)
    vadd.vi v1, v1, 1
    la a2, vresult
    vse64.v v1, (a2)
    ld a3, 0(a2)
    ld a4, 24(a2)
""", data=self.DATA)
        assert hart.regs[13] == 11 and hart.regs[14] == 41

    def test_strided_load(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    la a0, vin
    li a2, 16
    vlse64.v v1, (a0), a2
""", data=self.DATA)
        assert velems(hart, 1, 4) == [10, 30, 50, 70]

    def test_indexed_gather(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    la a0, vin
    vid.v v2
    vsll.vi v2, v2, 4         # byte offsets 0, 16, 32, 48
    vluxei64.v v1, (a0), v2
""", data=self.DATA)
        assert velems(hart, 1, 4) == [10, 30, 50, 70]

    def test_indexed_scatter(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vadd.vi v1, v1, 1         # 1 2 3 4
    vid.v v2
    vsll.vi v2, v2, 4         # scatter to every other dword
    la a0, vresult
    vsuxei64.v v1, (a0), v2
    ld a2, 0(a0)
    ld a3, 16(a0)
    ld a4, 8(a0)
""", data=self.DATA)
        assert hart.regs[12] == 1 and hart.regs[13] == 2
        assert hart.regs[14] == 0  # untouched gap

    def test_masked_load_leaves_inactive(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vmsgt.vi v0, v1, 1
    vmv.v.i v2, -1
    la a0, vin
    vle64.v v2, (a0), v0.t
""", data=self.DATA)
        ones = to_unsigned(-1)
        assert velems(hart, 2, 4) == [ones, ones, 30, 40]

    def test_vl_limits_elements(self):
        hart = run_body("""
    li a2, 2
    vsetvli a1, a2, e64, m1, ta, ma
    la a0, vin
    vle64.v v1, (a0)
""", data=self.DATA)
        assert velems(hart, 1, 2) == [10, 20]
        assert hart.read_velem(1, 2, 64) == 0  # tail untouched

    def test_element_accesses_recorded(self):
        hart = make_hart(""".text
_start:
    vsetvli a1, zero, e64, m1, ta, ma
    la a0, vin
    vle64.v v1, (a0)
    ebreak
.data
.align 3
vin: .dword 1, 2, 3, 4
""", vlen_bits=VLEN)
        # vsetvli + la (2 real instructions) + vle64 = 4 steps.
        for _ in range(4):
            hart.step()
        assert len(hart.accesses) == 4  # one recorded access per element
        assert all(access.size == 8 and not access.is_write
                   for access in hart.accesses)
        base = hart.program_symbols["vin"]
        assert [access.address for access in hart.accesses] == \
            [base + 8 * i for i in range(4)]

    def _unit_stride_hart(self, body: str, a0: int, a2: int = 0):
        hart = make_hart(f".text\n_start:\n"
                         f"vsetvli a1, zero, e64, m1, ta, ma\n{body}\n"
                         f"ebreak\n", vlen_bits=VLEN)
        hart.step()  # vsetvli
        hart.regs[10] = a0
        hart.regs[12] = a2
        return hart

    def test_unit_stride_across_page_boundary(self):
        page_end = 0x40000
        source, target = page_end - 16, 2 * page_end - 8
        hart = self._unit_stride_hart("vle64.v v1, (a0)\n"
                                      "vse64.v v1, (a2)", source, target)
        for i in range(4):
            hart.memory.store_int(source + 8 * i, 100 + i, 8)
        hart.step()
        assert velems(hart, 1, 4) == [100, 101, 102, 103]
        assert [access.address for access in hart.accesses] == \
            [source + 8 * i for i in range(4)]
        hart.step()
        assert [hart.memory.load_int(target + 8 * i, 8)
                for i in range(4)] == [100, 101, 102, 103]
        assert all(access.is_write for access in hart.accesses)

    def test_unit_stride_load_from_unallocated_page(self):
        hart = self._unit_stride_hart("vle64.v v1, (a0)", 0x7000_0000)
        hart.write_velem(1, 0, 64, 9)
        pages = hart.memory.touched_pages()
        hart.step()
        assert hart.memory.touched_pages() == pages
        assert velems(hart, 1, 4) == [0, 0, 0, 0]
        assert len(hart.accesses) == 4

    def test_unit_stride_wraps_at_top_of_address_space(self):
        base = (1 << 64) - 16
        hart = self._unit_stride_hart("vle64.v v1, (a0)", base)
        addresses = [base, base + 8, 0, 8]
        for i, address in enumerate(addresses):
            hart.memory.store_int(address, 70 + i, 8)
        hart.step()
        assert velems(hart, 1, 4) == [70, 71, 72, 73]
        assert [access.address for access in hart.accesses] == addresses

    def test_masked_unit_stride_store_writes_active_only(self):
        hart = self._unit_stride_hart("vse64.v v1, (a0), v0.t",
                                      0x7000_0000 - 16)
        for i in range(4):
            hart.write_velem(1, i, 64, 50 + i)
        hart.write_velem(0, 0, 8, 0b0011)  # elements 0 and 1: one page
        pages = hart.memory.touched_pages()
        hart.step()
        assert hart.memory.touched_pages() == \
            sorted(pages + [0x7000_0000 - 4096])
        assert hart.memory.load_int(0x7000_0000 - 16, 8) == 50
        assert hart.memory.load_int(0x7000_0000 - 8, 8) == 51
        assert [access.address for access in hart.accesses] == \
            [0x7000_0000 - 16, 0x7000_0000 - 8]

    def test_unit_stride_store_into_code_invalidates(self):
        patch = make_hart(".text\n_start:\naddi a5, a5, 100\n")
        word = patch.memory.load_int(patch.pc, 4)
        hart = run_body(f"""
    li a5, 0
    jal ra, target             # decodes target: a5 = 1
    vsetivli t0, 1, e32, m1, ta, ma
    la a0, patch
    vle32.v v1, (a0)
    la a1, target
    vse32.v v1, (a1)           # overwrite the decoded addi
    jal ra, target             # must run the patched addi: a5 = 101
    j done
target:
    addi a5, a5, 1
    ret
done:
""", data=f"patch: .word {word}\n")
        assert hart.regs[15] == 101

    def test_unit_stride_store_notes_whole_range(self):
        hart = make_hart(""".text
_start:
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    la a0, spot
    vse64.v v1, (a0)
    ebreak
spot:
    .zero 32
""", vlen_bits=VLEN)
        noted = []
        hart.code_registry.note_store = \
            lambda address, size: noted.append((address, size))
        run_until_ebreak(hart)
        assert noted == [(hart.program_symbols["spot"], 32)]


class TestFloatOps:
    DATA = """
fin:
    .double 1.0, 2.0, 3.0, 4.0
fscale:
    .double 0.5
"""

    def test_vfadd_vfmul(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    la a0, fin
    vle64.v v1, (a0)
    vfadd.vv v2, v1, v1
    vfmul.vv v3, v1, v1
""", data=self.DATA)
        assert vfelems(hart, 2, 4) == [2.0, 4.0, 6.0, 8.0]
        assert vfelems(hart, 3, 4) == [1.0, 4.0, 9.0, 16.0]

    def test_vfmacc_vf(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    la a0, fin
    vle64.v v1, (a0)
    la a2, fscale
    fld fa0, 0(a2)
    vmv.v.i v2, 0
    vfmacc.vf v2, fa0, v1      # 0 + 0.5 * v1
""", data=self.DATA)
        assert vfelems(hart, 2, 4) == [0.5, 1.0, 1.5, 2.0]

    def test_vfadd_e32_overflow_rounds_to_infinity(self):
        # 2**127 + 2**127 overflows float32: every element becomes +inf,
        # on the whole-group path and the masked per-lane path alike.
        hart = run_body("""
    vsetvli a1, zero, e32, m1, ta, mu
    li a2, 0x7f000000
    vmv.v.x v1, a2
    vfadd.vv v2, v1, v1
    li a3, 0x55
    vmv.v.x v0, a3
    vmv.v.i v3, 0
    vfadd.vv v3, v1, v1, v0.t
""")
        count = hart.vlenb // 4
        inf = 0x7F800000
        assert struct.unpack_from(f"<{count}I", hart.vrf,
                                  2 * hart.vlenb) == (inf,) * count
        assert struct.unpack_from(f"<{count}I", hart.vrf, 3 * hart.vlenb) \
            == tuple(inf if (0x55 >> i) & 1 else 0 for i in range(count))

    def test_vfmerge_e32_double_scalar_rounds_to_infinity(self):
        hart = run_body("""
    vsetvli a1, zero, e32, m1, ta, ma
    la a0, big
    fld fa0, 0(a0)
    vmv.v.i v0, 1
    vmv.v.i v1, 0
    vfmerge.vfm v2, v1, fa0, v0
""", data="big:\n    .double 1e300\n")
        assert struct.unpack_from("<2I", hart.vrf, 2 * hart.vlenb) \
            == (0x7F800000, 0)

    def test_vfredosum(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    la a0, fin
    vle64.v v1, (a0)
    fmv.d.x fa0, zero
    vfmv.s.f v4, fa0
    vfredosum.vs v5, v1, v4
    vfmv.f.s fa1, v5
""", data=self.DATA)
        assert hart.fregs[11] == 10.0

    @pytest.mark.parametrize("op", ["vfredosum", "vfredmax"])
    def test_fp_reduction_at_vl0_leaves_vd(self, op):
        hart = run_body(f"""
    vsetvli a1, zero, e64, m1, ta, ma
    la a0, fin
    vle64.v v1, (a0)
    la a2, fscale
    fld fa0, 0(a2)
    vfmv.s.f v5, fa0
    li a3, 0
    vsetvli a1, a3, e64, m1, ta, ma
    {op}.vs v5, v1, v1
""", data=self.DATA)
        assert vfelems(hart, 5, 1) == [0.5]

    def test_vfmv_v_f(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    la a2, fscale
    fld fa0, 0(a2)
    vfmv.v.f v1, fa0
""", data=self.DATA)
        assert vfelems(hart, 1, 4) == [0.5] * 4

    def test_vmflt_mask(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    la a0, fin
    vle64.v v1, (a0)
    la a2, fscale
    fld fa0, 0(a2)
    vfmv.v.f v2, fa0
    vfadd.vf v2, v2, fa0      # 1.0 broadcast... v2 = 1.0
    vmflt.vv v0, v1, v2       # fin < 1.0 -> none
    vmfle.vv v3, v1, v2       # fin <= 1.0 -> first only
""", data=self.DATA)
        assert hart.read_vmask_bit(0) == 0
        assert (hart.vrf[3 * hart.vlenb] & 0xF) == 0b0001

    def test_fp_op_at_sew8_traps(self):
        hart = make_hart(""".text
_start:
    vsetvli a1, zero, e8, m1, ta, ma
    vfadd.vv v1, v2, v3
""")
        hart.step()
        with pytest.raises(VectorConfigError):
            hart.step()


class TestLmulGroups:
    def test_lmul2_spans_registers(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m2, ta, ma   # vl = 8 across v-pairs
    vid.v v2
    vadd.vi v4, v2, 1
""")
        # Group v2..v3 holds 0..7; group v4..v5 holds 1..8.
        values = [hart.read_velem(2, i, 64) for i in range(8)]
        assert values == list(range(8))
        values4 = [hart.read_velem(4, i, 64) for i in range(8)]
        assert values4 == [v + 1 for v in range(8)]

    def test_lmul2_memory_roundtrip(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m2, ta, ma
    vid.v v2
    la a0, vresult
    vse64.v v2, (a0)
    ld a2, 56(a0)
""")
        assert hart.regs[12] == 7
