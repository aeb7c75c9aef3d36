"""Memory substrate: address math, SRAM arrays, TLBs, main memory."""

from repro.mem.address import AddressMap, AddressSpace
from repro.mem.sram import SetAssocStore
from repro.mem.tlb import TwoLevelTLB
from repro.mem.mainmem import MainMemory

__all__ = [
    "AddressMap",
    "AddressSpace",
    "SetAssocStore",
    "TwoLevelTLB",
    "MainMemory",
]
