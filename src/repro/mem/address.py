"""Address manipulation: lines, regions, pages, and virtual memory.

Two helpers live here:

* :class:`AddressMap` — pure bit math over one system's line/region/page
  geometry (split an address into line, region, offsets; compose them back).
* :class:`AddressSpace` — a per-process virtual-to-physical translation
  with on-demand page allocation, used by workloads (each process gets its
  own space; threads of one parallel program share one).

:func:`translate_chunk` translates a whole chunk of a stream at once.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.common.errors import ConfigError


def _log2(value: int, what: str) -> int:
    if value <= 0 or value & (value - 1):
        raise ConfigError(f"{what} must be a positive power of two, got {value}")
    return value.bit_length() - 1


class AddressMap:
    """Bit-level address arithmetic for one geometry.

    Terminology (all identifiers are integers):

    * ``line``   — byte address >> line_bits (a cacheline number).
    * ``region`` — byte address >> region_bits (a region number; one region
      holds ``region_lines`` adjacent cachelines).
    * ``line_in_region`` — index of a line within its region, in
      ``[0, region_lines)``.
    """

    def __init__(self, line_size: int = 64, region_lines: int = 16,
                 page_size: int = 4096) -> None:
        self.line_size = line_size
        self.region_lines = region_lines
        self.page_size = page_size
        self.line_bits = _log2(line_size, "line size")
        self.region_line_bits = _log2(region_lines, "region lines")
        self.region_bits = self.line_bits + self.region_line_bits
        self.page_bits = _log2(page_size, "page size")
        if self.region_bits > self.page_bits:
            raise ConfigError("region must fit within a page")

    # -- decomposition ------------------------------------------------------

    def line_of(self, addr: int) -> int:
        return addr >> self.line_bits

    def region_of(self, addr: int) -> int:
        return addr >> self.region_bits

    def page_of(self, addr: int) -> int:
        return addr >> self.page_bits

    def line_in_region(self, addr: int) -> int:
        return (addr >> self.line_bits) & (self.region_lines - 1)

    def region_of_line(self, line: int) -> int:
        return line >> self.region_line_bits

    def line_index_in_region(self, line: int) -> int:
        return line & (self.region_lines - 1)

    def page_offset(self, addr: int) -> int:
        return addr & (self.page_size - 1)

    # -- composition --------------------------------------------------------

    def line_addr(self, line: int) -> int:
        return line << self.line_bits

    def region_addr(self, region: int) -> int:
        return region << self.region_bits

    def line_of_region(self, region: int, index: int) -> int:
        """The global line number of line ``index`` within ``region``."""
        if not 0 <= index < self.region_lines:
            raise ValueError(f"line index {index} outside region of {self.region_lines}")
        return (region << self.region_line_bits) | index

    def translate(self, vaddr: int, vpage_to_ppage: Dict[int, int]) -> int:
        """Apply a page map to a virtual address (used by AddressSpace)."""
        vpage = self.page_of(vaddr)
        return (vpage_to_ppage[vpage] << self.page_bits) | self.page_offset(vaddr)


class AddressSpace:
    """Virtual-to-physical translation for one process.

    Pages are allocated on first touch from a global physical allocator so
    distinct address spaces never collide physically.  Allocation order is
    lightly permuted so physically indexed structures do not see perfectly
    sequential physical pages (real systems do not either).
    """

    #: shared allocator cursor per allocator group
    def __init__(self, amap: AddressMap, asid: int = 0,
                 allocator: "PageAllocator | None" = None) -> None:
        self.amap = amap
        self.asid = asid
        self._allocator = allocator if allocator is not None else PageAllocator()
        self._pages: Dict[int, int] = {}
        # Hoisted bit fields: translate() runs once per simulated access.
        self._page_bits = amap.page_bits
        self._offset_mask = amap.page_size - 1

    def translate(self, vaddr: int) -> int:
        """Physical address for ``vaddr``, allocating its page on demand."""
        vpage = vaddr >> self._page_bits
        ppage = self._pages.get(vpage)
        if ppage is None:
            ppage = self._allocator.allocate(self.asid, vpage)
            self._pages[vpage] = ppage
        return (ppage << self._page_bits) | (vaddr & self._offset_mask)

    @property
    def mapped_pages(self) -> int:
        return len(self._pages)


def translate_chunk(spaces: Sequence[AddressSpace], cores: Sequence[int],
                    vaddrs: Sequence[int]) -> List[int]:
    """``[spaces[c].translate(v) for c, v in zip(cores, vaddrs)]``.

    Mapped pages resolve in one bulk pass; the first touches left over
    then allocate in stream order, so the allocator sees exactly the
    sequence of per-access ``translate`` calls.  All spaces share one
    geometry.
    """
    bits = spaces[0]._page_bits
    mask = spaces[0]._offset_mask
    tables = [space._pages for space in spaces]
    # -1 marks a first touch (physical pages are never negative)
    if all(table is tables[0] for table in tables):
        get = tables[0].get
        ppages = [get(v >> bits, -1) for v in vaddrs]
    else:
        ppages = [tables[c].get(v >> bits, -1)
                  for c, v in zip(cores, vaddrs)]
    i = -1
    try:
        while True:
            i = ppages.index(-1, i + 1)
            ppages[i] = spaces[cores[i]].translate(vaddrs[i]) >> bits
    except ValueError:  # no first touch left
        pass
    return [(p << bits) | (v & mask) for p, v in zip(ppages, vaddrs)]


class PageAllocator:
    """Allocates distinct physical pages across address spaces.

    A multiplicative hash spreads consecutive allocations across the
    physical page space (deterministically, for reproducible runs) while
    guaranteeing uniqueness via a sequence number.
    """

    _GOLDEN = 0x9E3779B97F4A7C15

    def __init__(self) -> None:
        self._next = 0
        self._issued: Dict[int, int] = {}

    def allocate(self, asid: int, vpage: int) -> int:
        key = (asid << 48) ^ vpage
        if key in self._issued:
            return self._issued[key]
        seq = self._next
        self._next += 1
        # Permute the low bits, keep uniqueness by placing seq in high bits.
        scatter = ((seq * self._GOLDEN) >> 52) & 0xFFF
        ppage = (seq << 12) | scatter
        self._issued[key] = ppage
        return ppage
