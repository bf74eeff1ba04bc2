"""The byte-accurate memory model.

Memory is a sparse 32-bit virtual address space populated by *homes*
(allocation units): globals, stack slots, heap blocks, string literals
and code stubs.  Data always lives in the plain C layout, so a pointer
stored in memory is 4 little-endian bytes holding a virtual address —
an uninstrumented "library" routine (or a buggy uncured program) can
scribble raw bytes and everything behaves like real hardware, including
overflows that bleed into an adjacent home.

CCured's *metadata* (a stored pointer's bounds, its RTTI word, WILD
tags) is kept in a per-home shadow map keyed by byte offset.  This is
the moral equivalent of the paper's two representations:

* interleaved (``Rep``, Figure 1) and split (``C``/``Meta``, Figure 6)
  layouts differ in *where the metadata lives and what it costs*, which
  the cost model charges per the inferred representation;
* the shadow map preserves the paper's semantics exactly: an integer
  written over a stored pointer clears its metadata (so reading it back
  as a SEQ/WILD pointer yields a null-base "integer disguised as
  pointer", and reading it as a WILD pointer fails the tag check —
  Figure 10's invariants).

By default homes are never reused, so dangling pointers are always
detectable — the paper's CCured inserts its own allocator with the
same property.  ``Memory(reuse_freed=True)`` drops that crutch: freed
heap homes go onto a per-size free list and ``alloc`` hands their
addresses (and stale bytes) back out, like a real ``malloc``.  Under
reuse, detecting a use-after-free needs the *lock-and-key* discipline
of the temporal mode ("Fat Pointers for Temporal Memory Safety of C"):
every home holds a slot in the :class:`LockTable` with a unique lock
value, fat pointers carry the value as their *key*, and ``free`` (or a
frame pop) invalidates the lock — a recycled address gets a fresh
lock, so stale keys can never match again.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional

from repro.runtime.checks import SegmentationFault

_WORD = 4
_U32 = 0xFFFFFFFF
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")


@dataclass
class PtrMeta:
    """Shadow metadata of one stored pointer word."""

    b: Optional[int] = None      # base address (SEQ/WILD bound)
    e: Optional[int] = None      # end address (SEQ bound)
    rtti: Optional[int] = None   # RTTI hierarchy node id
    key: Optional[int] = None    # temporal key (lock value at issue)


class LockTable:
    """The temporal lock table: one slot per home, holding the lock
    value a pointer's key must match.  Slots are recycled when a home
    is, but lock values never repeat — so a key issued for a previous
    tenant of the slot can never validate again."""

    def __init__(self) -> None:
        self._values: list[int] = []
        self._free_slots: list[int] = []
        self._next_key = 1

    def acquire(self) -> tuple[int, int]:
        """Allocate (or recycle) a slot with a fresh lock value;
        returns ``(slot, lock_value)``."""
        key = self._next_key
        self._next_key += 1
        if self._free_slots:
            slot = self._free_slots.pop()
            self._values[slot] = key
        else:
            slot = len(self._values)
            self._values.append(key)
        return slot, key

    def release(self, slot: int) -> None:
        """Invalidate the slot's lock (0 is never a valid key)."""
        if self._values[slot] != 0:
            self._values[slot] = 0
            self._free_slots.append(slot)

    def valid(self, slot: int, key: int) -> bool:
        return self._values[slot] == key

    def __len__(self) -> int:
        return len(self._values)


class Home:
    """One allocation unit."""

    __slots__ = ("hid", "base", "size", "end", "region", "data",
                 "alive", "meta", "name", "dynamic_rtti", "frame_id",
                 "lock_slot", "lock_key", "freed")

    def __init__(self, hid: int, base: int, size: int, region: str,
                 name: str = "") -> None:
        self.hid = hid
        #: ``base``, ``size`` and ``end`` never change, not even when
        #: the home is recycled
        self.base = base
        self.size = size
        self.end = base + size
        self.region = region  # "stack" | "heap" | "global" | "rodata" | "code"
        self.data = bytearray(size)
        self.alive = True
        #: shadow pointer metadata, keyed by byte offset of the word
        self.meta: dict[int, PtrMeta] = {}
        self.name = name
        #: the dynamic (effective) type of a heap allocation, branded on
        #: first RTTI-checked use (malloc returns untyped memory).
        self.dynamic_rtti: Optional[int] = None
        self.frame_id: Optional[int] = None
        #: lock-table slot and the lock value held while this tenancy
        #: is live; assigned by :meth:`Memory.alloc`
        self.lock_slot: int = -1
        self.lock_key: int = 0
        #: True between a heap ``free`` and a reallocation of the home
        self.freed = False

    def __repr__(self) -> str:
        state = "" if self.alive else " (freed)"
        return (f"<home #{self.hid} {self.name or self.region} "
                f"@0x{self.base:x}+{self.size}{state}>")


class Memory:
    """The virtual address space."""

    #: Address space layout: regions start at fixed bases so that
    #: diagnostic output is stable and code addresses are recognizable.
    REGION_BASES = {"code": 0x0001_0000, "rodata": 0x0010_0000,
                    "global": 0x0100_0000, "heap": 0x1000_0000,
                    "stack": 0x7000_0000}

    def __init__(self, *, contiguous: bool = False,
                 gap_regions: Optional[set[str]] = None,
                 reuse_freed: bool = False) -> None:
        self._next = dict(Memory.REGION_BASES)
        #: sorted home base addresses for address resolution
        self._bases: list[int] = []
        self._by_base: list[Home] = []
        self._next_hid = 1
        #: Regions whose homes get a guard gap between them.  Packing
        #: homes back to back (no gap) makes uncured overflows corrupt
        #: the adjacent object exactly as on real hardware; a gap makes
        #: them fault.  Purify-style red zones = gaps on the heap only.
        if gap_regions is not None:
            self.gap_regions = set(gap_regions)
        elif contiguous:
            self.gap_regions = set()
        else:
            self.gap_regions = {"stack", "heap", "global", "rodata",
                                "code"}
        self.bytes_allocated = 0
        self.allocations = 0
        #: the temporal lock table; every home holds a slot while live
        self.locks = LockTable()
        #: recycle freed heap homes (real-malloc semantics) instead of
        #: retiring their addresses forever
        self.reuse_freed = reuse_freed
        #: freed heap homes by exact size, LIFO — the reuse pool
        self._free_heap: dict[int, list[Home]] = {}

    # -- allocation ---------------------------------------------------------

    def alloc(self, size: int, region: str, name: str = "") -> Home:
        size = max(1, size)
        if region == "heap" and self.reuse_freed:
            pool = self._free_heap.get(size)
            if pool:
                home = self._recycle(pool.pop(), name)
                self.bytes_allocated += size
                self.allocations += 1
                return home
        base = self._next[region]
        # align to word
        base = (base + _WORD - 1) & ~(_WORD - 1)
        home = Home(self._next_hid, base, size, region, name)
        self._next_hid += 1
        home.lock_slot, home.lock_key = self.locks.acquire()
        gap = _WORD if region in self.gap_regions else 0
        self._next[region] = base + size + gap
        # insert keeping bases sorted (allocations are monotonic per
        # region, but regions interleave)
        i = bisect_right(self._bases, base)
        self._bases.insert(i, base)
        self._by_base.insert(i, home)
        self.bytes_allocated += size
        self.allocations += 1
        return home

    def _recycle(self, home: Home, name: str) -> Home:
        """Hand a freed heap home back out at the same address.  The
        bytes are deliberately left stale — recycled memory keeps its
        previous tenant's data, exactly like a real allocator — but
        the tenancy is fresh: new id, new lock, clean shadow state."""
        home.hid = self._next_hid
        self._next_hid += 1
        home.lock_slot, home.lock_key = self.locks.acquire()
        home.alive = True
        home.freed = False
        home.name = name
        home.dynamic_rtti = None
        home.frame_id = None
        return home

    def free(self, home: Home) -> None:
        home.alive = False
        home.freed = True
        home.meta.clear()
        self.locks.release(home.lock_slot)
        if self.reuse_freed and home.region == "heap":
            self._free_heap.setdefault(home.size, []).append(home)

    # -- address resolution -------------------------------------------------

    def home_of(self, addr: int) -> Optional[Home]:
        """The home containing ``addr``, alive or not."""
        i = bisect_right(self._bases, addr) - 1
        if i < 0:
            return None
        h = self._by_base[i]
        return h if addr < h.end else None

    # -- raw byte access (hardware semantics) --------------------------------

    def read_raw(self, addr: int, n: int) -> bytes:
        """Read ``n`` bytes, spanning homes; traps on unmapped bytes."""
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            h = self._by_base[i]
            off = addr - h.base
            if 0 <= off and 0 <= n <= h.size - off:
                return bytes(h.data[off:off + n])
        out = bytearray()
        while n > 0:
            h = self.home_of(addr)
            if h is None:
                raise SegmentationFault(
                    f"read of unmapped address 0x{addr:x}")
            take = min(n, h.end - addr)
            off = addr - h.base
            out += h.data[off:off + take]
            addr += take
            n -= take
        return bytes(out)

    def scan_cstring(self, addr: int, limit: int,
                     on_read: Optional[Callable[[int, int], object]] = None
                     ) -> Optional[bytearray]:
        """The bytes from ``addr`` up to the first NUL, which is not
        included; ``None`` if none of the ``limit`` bytes from ``addr``
        is a NUL.  Searches one home at a time, and behaves exactly
        like reading a byte at a time: traps at the first unmapped
        byte before the NUL, and calls ``on_read(a, 1)`` for every byte
        read, the NUL included, in address order."""
        out = bytearray()
        stop = addr + limit
        while addr < stop:
            h = self.home_of(addr)
            if h is None:
                raise SegmentationFault(
                    f"read of unmapped address 0x{addr:x}")
            base = h.base
            end = min(h.end, stop)
            nul = h.data.find(0, addr - base, end - base)
            if on_read is not None:
                for a in range(addr, end if nul < 0 else base + nul + 1):
                    on_read(a, 1)
            if nul >= 0:
                out += h.data[addr - base:nul]
                return out
            out += h.data[addr - base:end - base]
            addr = end
        return None

    def write_raw(self, addr: int, data: bytes) -> None:
        """Write bytes, spanning homes (so an uncured overflow corrupts
        the neighbour, as on hardware); traps on unmapped bytes.
        Overwritten pointer words lose their shadow metadata."""
        pos = 0
        n = len(data)
        while pos < n:
            h = self.home_of(addr)
            if h is None:
                raise SegmentationFault(
                    f"write to unmapped address 0x{addr:x}")
            take = min(n - pos, h.end - addr)
            off = addr - h.base
            h.data[off:off + take] = data[pos:pos + take]
            # clobber any shadow metadata whose word overlaps the write
            if h.meta:
                lo = (off // _WORD) * _WORD
                hi = off + take
                for moff in [m for m in h.meta if lo <= m < hi]:
                    del h.meta[moff]
            addr += take
            pos += take

    # -- typed scalar access --------------------------------------------------

    def read_int(self, addr: int, size: int, signed: bool) -> int:
        # Fast path: the access lies within one home (the overwhelmingly
        # common case); identical semantics to read_raw, minus a bisect
        # and a bytearray round-trip.
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            h = self._by_base[i]
            off = addr - h.base
            if 0 <= off and off + size <= h.size:
                return int.from_bytes(h.data[off:off + size], "little",
                                      signed=signed)
        raw = self.read_raw(addr, size)
        return int.from_bytes(raw, "little", signed=signed)

    def write_int(self, addr: int, value: int, size: int) -> None:
        value &= (1 << (8 * size)) - 1
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            h = self._by_base[i]
            off = addr - h.base
            if 0 <= off and off + size <= h.size:
                h.data[off:off + size] = value.to_bytes(size, "little")
                if h.meta:
                    lo = (off // _WORD) * _WORD
                    hi = off + size
                    for moff in [m for m in h.meta if lo <= m < hi]:
                        del h.meta[moff]
                return
        self.write_raw(addr, value.to_bytes(size, "little"))

    def read_float(self, addr: int, size: int) -> float:
        fmt = _F32 if size == 4 else _F64
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            h = self._by_base[i]
            off = addr - h.base
            if 0 <= off and off + size <= h.size:
                return fmt.unpack_from(h.data, off)[0]
        return fmt.unpack(self.read_raw(addr, size))[0]

    def write_float(self, addr: int, value: float, size: int) -> None:
        fmt = _F32 if size == 4 else _F64
        try:
            data = fmt.pack(value)
        except OverflowError:
            data = fmt.pack(float("inf") if value > 0 else float("-inf"))
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            h = self._by_base[i]
            off = addr - h.base
            if 0 <= off and off + size <= h.size:
                h.data[off:off + size] = data
                if h.meta:
                    lo = (off // _WORD) * _WORD
                    hi = off + size
                    for moff in [m for m in h.meta if lo <= m < hi]:
                        del h.meta[moff]
                return
        self.write_raw(addr, data)

    # -- pointer access (word + shadow metadata) ------------------------------

    def write_ptr(self, addr: int, value: int,
                  meta: Optional[PtrMeta]) -> None:
        data = (value & _U32).to_bytes(4, "little")
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            h = self._by_base[i]
            off = addr - h.base
            if 0 <= off and off + 4 <= h.size:
                h.data[off:off + 4] = data
                if h.meta:
                    # same clobber window write_raw would apply
                    lo = (off // _WORD) * _WORD
                    hi = off + 4
                    for moff in [m for m in h.meta if lo <= m < hi]:
                        del h.meta[moff]
                if meta is not None:
                    h.meta[off] = meta
                return
        self.write_raw(addr, data)
        h = self.home_of(addr)
        if h is not None:
            off = addr - h.base
            if meta is not None:
                h.meta[off] = meta
            else:
                h.meta.pop(off, None)

    def read_ptr(self, addr: int) -> tuple[int, Optional[PtrMeta]]:
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            h = self._by_base[i]
            off = addr - h.base
            if 0 <= off and off + 4 <= h.size:
                return (int.from_bytes(h.data[off:off + 4], "little"),
                        h.meta.get(off))
        value = int.from_bytes(self.read_raw(addr, 4), "little")
        h = self.home_of(addr)
        meta = h.meta.get(addr - h.base) if h is not None else None
        return value, meta

    def has_ptr_tag(self, addr: int) -> bool:
        """The WILD tag of the word at ``addr``: set iff the last store
        there was a valid pointer (Figure 10's tag invariant)."""
        h = self.home_of(addr)
        return h is not None and (addr - h.base) in h.meta

    def __repr__(self) -> str:
        return (f"<memory: {self.allocations} allocations, "
                f"{self.bytes_allocated} bytes>")
