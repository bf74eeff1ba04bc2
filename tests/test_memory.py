"""Unit tests for the memory model (homes, shadow metadata, spanning)."""

import pytest

from helpers import cure_src

from repro.baselines.base import ShadowChecker
from repro.frontend import parse_program
from repro.interp import Interpreter
from repro.runtime.checks import BoundsError, SegmentationFault
from repro.runtime.memory import Memory, PtrMeta
from repro.runtime.values import PtrVal


class TestAllocation:
    def test_regions_are_disjoint(self):
        m = Memory()
        h1 = m.alloc(16, "heap")
        h2 = m.alloc(16, "stack")
        h3 = m.alloc(16, "global")
        bases = sorted([h1.base, h2.base, h3.base])
        assert len(set(bases)) == 3

    def test_homes_word_aligned(self):
        m = Memory()
        m.alloc(3, "heap")
        h = m.alloc(5, "heap")
        assert h.base % 4 == 0

    def test_gap_regions(self):
        m = Memory(gap_regions={"heap"})
        a = m.alloc(8, "heap")
        b = m.alloc(8, "heap")
        assert b.base >= a.end + 4

    def test_contiguous_packing(self):
        m = Memory(gap_regions=set())
        a = m.alloc(8, "heap")
        b = m.alloc(8, "heap")
        assert b.base == a.end

    def test_home_of_resolution(self):
        m = Memory()
        h = m.alloc(16, "heap", "blk")
        assert m.home_of(h.base) is h
        assert m.home_of(h.base + 15) is h
        assert m.home_of(h.end) is not h

    def test_free_marks_dead(self):
        m = Memory()
        h = m.alloc(8, "heap")
        m.free(h)
        assert not h.alive

    def test_stats(self):
        m = Memory()
        m.alloc(10, "heap")
        m.alloc(6, "stack")
        assert m.allocations == 2
        assert m.bytes_allocated == 16


class TestRawAccess:
    def test_roundtrip_bytes(self):
        m = Memory()
        h = m.alloc(8, "heap")
        m.write_raw(h.base, b"abcdefgh")
        assert m.read_raw(h.base + 2, 3) == b"cde"

    def test_unmapped_read_faults(self):
        m = Memory()
        with pytest.raises(SegmentationFault):
            m.read_raw(0xDEAD, 4)

    def test_spanning_write_contiguous(self):
        m = Memory(gap_regions=set())
        a = m.alloc(4, "stack")
        b = m.alloc(4, "stack")
        m.write_raw(a.base, b"12345678")  # spans into b
        assert bytes(b.data) == b"5678"

    def test_spanning_write_with_gap_faults(self):
        m = Memory(gap_regions={"stack"})
        a = m.alloc(4, "stack")
        m.alloc(4, "stack")
        with pytest.raises(SegmentationFault):
            m.write_raw(a.base, b"12345678")

    def test_int_roundtrip_signed(self):
        m = Memory()
        h = m.alloc(8, "heap")
        m.write_int(h.base, -5, 4)
        assert m.read_int(h.base, 4, True) == -5
        assert m.read_int(h.base, 4, False) == 0xFFFFFFFB

    def test_short_and_char(self):
        m = Memory()
        h = m.alloc(8, "heap")
        m.write_int(h.base, 0x1234, 2)
        assert m.read_int(h.base, 2, False) == 0x1234
        m.write_int(h.base, 0x9C, 1)
        assert m.read_int(h.base, 1, True) == 0x9C - 256

    def test_float_roundtrip(self):
        m = Memory()
        h = m.alloc(16, "heap")
        m.write_float(h.base, 3.25, 8)
        assert m.read_float(h.base, 8) == 3.25
        m.write_float(h.base, 1.5, 4)
        assert m.read_float(h.base, 4) == 1.5

    def test_little_endian_layout(self):
        m = Memory()
        h = m.alloc(4, "heap")
        m.write_int(h.base, 0x11223344, 4)
        assert m.read_raw(h.base, 1) == b"\x44"


class TestShadowMetadata:
    def test_pointer_meta_roundtrip(self):
        m = Memory()
        h = m.alloc(8, "heap")
        meta = PtrMeta(b=100, e=200, rtti=3)
        m.write_ptr(h.base, 0x1000, meta)
        value, got = m.read_ptr(h.base)
        assert value == 0x1000
        assert got.b == 100 and got.e == 200 and got.rtti == 3

    def test_int_write_clears_meta(self):
        """Figure 10's tag invariant: writing an integer over a stored
        pointer invalidates the pointer's metadata."""
        m = Memory()
        h = m.alloc(8, "heap")
        m.write_ptr(h.base, 0x1000, PtrMeta(b=1, e=2))
        m.write_int(h.base, 42, 4)
        value, got = m.read_ptr(h.base)
        assert value == 42 and got is None

    def test_partial_overwrite_clears_meta(self):
        m = Memory()
        h = m.alloc(8, "heap")
        m.write_ptr(h.base, 0x1000, PtrMeta(b=1, e=2))
        m.write_int(h.base + 2, 7, 1)  # clobbers one byte of the word
        _, got = m.read_ptr(h.base)
        assert got is None

    def test_tag_query(self):
        m = Memory()
        h = m.alloc(8, "heap")
        m.write_ptr(h.base, 0x1000, PtrMeta(b=1, e=2))
        assert m.has_ptr_tag(h.base)
        assert not m.has_ptr_tag(h.base + 4)

    def test_null_meta_write_clears(self):
        m = Memory()
        h = m.alloc(8, "heap")
        m.write_ptr(h.base, 0x1000, PtrMeta(b=1, e=2))
        m.write_ptr(h.base, 0, None)
        _, got = m.read_ptr(h.base)
        assert got is None

    def test_free_clears_meta(self):
        m = Memory()
        h = m.alloc(8, "heap")
        m.write_ptr(h.base, 0x1000, PtrMeta(b=1, e=2))
        m.free(h)
        assert not h.meta


def _layout(gapped):
    """Two 4-byte heap homes, back to back or with a guard gap."""
    m = Memory(gap_regions={"heap"} if gapped else set())
    return m, m.alloc(4, "heap"), m.alloc(4, "heap")


class TestAccessAcrossHomes:
    def test_read_raw_spans_contiguous_homes(self):
        m, a, b = _layout(gapped=False)
        m.write_raw(a.base, b"abcdefgh")
        assert m.read_raw(a.base + 2, 4) == b"cdef"
        assert m.read_raw(a.base + 4, 4) == bytes(b.data)

    def test_read_raw_into_a_gap_faults_at_the_gap(self):
        m, a, _ = _layout(gapped=True)
        with pytest.raises(SegmentationFault,
                           match=f"read of unmapped address 0x{a.end:x}$"):
            m.read_raw(a.base + 2, 4)

    @pytest.mark.parametrize("size,value", [(4, 1.5), (8, -2.25)])
    def test_float_spans_contiguous_homes(self, size, value):
        m = Memory(gap_regions=set())
        a = m.alloc(4, "heap")
        m.alloc(8, "heap")
        m.write_float(a.base + 2, value, size)
        assert m.read_float(a.base + 2, size) == value

    def test_float_into_a_gap_faults_at_the_gap(self):
        m, a, _ = _layout(gapped=True)
        with pytest.raises(SegmentationFault,
                           match=f"read of unmapped address 0x{a.end:x}$"):
            m.read_float(a.base + 2, 4)
        with pytest.raises(SegmentationFault,
                           match=f"write to unmapped address 0x{a.end:x}$"):
            m.write_float(a.base + 2, 1.0, 4)

    def test_float_write_clears_pointer_meta(self):
        m = Memory()
        h = m.alloc(8, "heap")
        m.write_ptr(h.base, 0x1000, PtrMeta(b=1, e=2))
        m.write_float(h.base + 4, 2.0, 4)
        assert m.read_ptr(h.base)[1] is not None
        m.write_float(h.base + 2, 2.0, 4)
        assert m.read_ptr(h.base)[1] is None

    def test_float_overflow_stores_infinity(self):
        m = Memory()
        h = m.alloc(4, "heap")
        m.write_float(h.base, -1e300, 4)
        assert m.read_float(h.base, 4) == float("-inf")


def _bytewise(m, addr, limit):
    """The reference scan: one ``read_raw`` per byte, ``on_read`` after
    each; returns ``(outcome, on_read calls)``."""
    calls = []
    out = bytearray()
    try:
        for _ in range(limit):
            b = m.read_raw(addr, 1)
            calls.append((addr, 1))
            if b == b"\0":
                return bytes(out), calls
            out += b
            addr += 1
    except SegmentationFault as exc:
        return ("fault", str(exc)), calls
    return None, calls


def _scan(m, addr, limit):
    calls = []
    try:
        got = m.scan_cstring(addr, limit,
                             lambda a, n: calls.append((a, n)))
    except SegmentationFault as exc:
        return ("fault", str(exc)), calls
    return (None if got is None else bytes(got)), calls


class TestScanCstring:
    def test_string_spanning_two_contiguous_homes(self):
        m, a, b = _layout(gapped=False)
        m.write_raw(a.base, b"abcdef\0x")
        assert bytes(m.scan_cstring(a.base + 1, 100)) == b"bcdef"
        got = _scan(m, a.base + 1, 100)
        assert got == (b"bcdef", [(x, 1) for x in range(a.base + 1,
                                                         b.base + 3)])
        assert got == _bytewise(m, a.base + 1, 100)

    def test_string_running_into_a_guard_gap_faults(self):
        m, a, _ = _layout(gapped=True)
        m.write_raw(a.base, b"abcd")
        with pytest.raises(SegmentationFault,
                           match=f"read of unmapped address 0x{a.end:x}$"):
            m.scan_cstring(a.base, 100)
        got = _scan(m, a.base, 100)
        assert got[0] == ("fault",
                          f"read of unmapped address 0x{a.end:x}")
        assert got == _bytewise(m, a.base, 100)

    @pytest.mark.parametrize("limit", [0, 1, 3, 4, 5, 8])
    def test_limit(self, limit):
        m, a, _ = _layout(gapped=False)
        m.write_raw(a.base, b"abcdefgh")
        got = _scan(m, a.base, limit)
        assert got[0] is None
        assert got == _bytewise(m, a.base, limit)

    def test_nul_at_the_limit_is_found(self):
        m, a, _ = _layout(gapped=False)
        m.write_raw(a.base, b"abcde\0")
        assert _scan(m, a.base, 6) == _bytewise(m, a.base, 6)
        assert bytes(m.scan_cstring(a.base, 6)) == b"abcde"
        assert m.scan_cstring(a.base, 5) is None

    @pytest.mark.parametrize("gapped", [False, True])
    def test_every_start_and_limit_matches_the_bytewise_scan(self, gapped):
        m, a, b = _layout(gapped)
        m.write_raw(a.base, b"ab\0d")
        m.write_raw(b.base, b"efgh")
        for start in range(a.base - 1, b.end + 2):
            for limit in range(0, 12):
                assert _scan(m, start, limit) == \
                    _bytewise(m, start, limit), (start, limit)


class _Reads(ShadowChecker):
    """A shadow tool that records its ``on_read`` calls."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_read(self, addr, size):
        self.seen.append((addr, size))


def _interp(cured=False, shadow=None):
    src = "int main(void) { return 0; }"
    if cured:
        c = cure_src(src, "s")
        return Interpreter(c.prog, cured=c, shadow=shadow)
    return Interpreter(parse_program(src, name="s"), shadow=shadow)


class TestReadCstring:
    def test_raw_string_spanning_homes(self):
        ip = _interp()
        a = ip.mem.alloc(4, "heap")
        ip.mem.alloc(4, "heap")
        ip.mem.write_raw(a.base, b"abcdef\0")
        assert ip.read_cstring(PtrVal(a.base)) == "abcdef"

    def test_raw_string_into_a_guard_gap_faults(self):
        ip = _interp(shadow=_Reads())
        ip.mem.gap_regions = {"heap"}
        a = ip.mem.alloc(4, "heap")
        ip.mem.write_raw(a.base, b"abcd")
        ip.shadow.seen.clear()
        with pytest.raises(SegmentationFault,
                           match=f"read of unmapped address 0x{a.end:x}$"):
            ip.read_cstring(PtrVal(a.base))
        assert ip.shadow.seen == [(x, 1) for x in range(a.base, a.end)]

    def test_raw_no_nul_within_limit(self):
        ip = _interp()
        h = ip.mem.alloc(32, "heap")
        ip.mem.write_raw(h.base, b"A" * 32)
        with pytest.raises(BoundsError,
                           match="not NUL-terminated within 16 bytes"):
            ip.read_cstring(PtrVal(h.base), limit=16)

    def test_shadow_sees_one_read_per_byte_in_order(self):
        ip = _interp(shadow=_Reads())
        a = ip.mem.alloc(4, "heap")
        b = ip.mem.alloc(8, "heap")
        ip.mem.write_raw(a.base, b"abcdefg\0z")
        ip.shadow.seen.clear()
        assert ip.read_cstring(PtrVal(a.base + 1)) == "bcdefg"
        calls = _bytewise(ip.mem, a.base + 1, 1 << 20)[1]
        assert ip.shadow.seen == calls
        assert calls[-1] == (b.base + 3, 1)

    def test_cured_string_stops_at_its_bound(self):
        ip = _interp(cured=True)
        h = ip.intern_string("abcdef")
        p = PtrVal(h.base, b=h.base, e=h.end)
        assert ip.read_cstring(p) == "abcdef"
        with pytest.raises(BoundsError, match="within bounds"):
            ip.read_cstring(PtrVal(h.base, b=h.base, e=h.base + 6))

    @pytest.mark.parametrize("e_off", [1, 0, -3])
    def test_cured_bound_below_the_pointer(self, e_off):
        """``p.e < p.addr``, even below the home's base: no byte is in
        bounds, so there is no NUL either."""
        ip = _interp(cured=True)
        h = ip.intern_string("ab")
        p = PtrVal(h.base + 2, b=h.base, e=h.base + e_off)
        with pytest.raises(BoundsError, match="within bounds") as ei:
            ip.read_cstring(p)
        assert ei.value.failure.check == "CHECK_VERIFY_NUL"
