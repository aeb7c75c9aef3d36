"""Shared test helpers: trace drivers, small configs, and oracles."""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Iterable, Optional

from repro.common.params import (
    CacheGeometry,
    MetadataGeometry,
    SystemConfig,
    base_2l,
    base_3l,
    d2m_fs,
    d2m_ns,
    d2m_ns_r,
)
from repro.common.types import Access, AccessKind
from repro.mem.address import AddressSpace, PageAllocator
from repro.mem.mainmem import VersionOracle


def small_config(config: SystemConfig) -> SystemConfig:
    """Shrink a config so eviction/spill paths trigger quickly."""
    return replace(
        config,
        l1i=CacheGeometry(4096, 4),
        l1d=CacheGeometry(4096, 4),
        llc=CacheGeometry(64 * 1024, 16),
        md1=MetadataGeometry(32, 4),
        md2=MetadataGeometry(64, 4),
        md3=MetadataGeometry(256, 4),
    )


def llc_slots(protocol):
    """Every occupied LLC slot of a D2M machine as ``((owner, set, way),
    slot)``, from an exhaustive scan of every bank."""
    for owner, array in protocol.llc.arrays():
        for set_idx, way, slot in array:
            yield (owner, set_idx, way), slot


ALL_FACTORIES = (base_2l, base_3l, d2m_fs, d2m_ns, d2m_ns_r)
D2M_FACTORIES = (d2m_fs, d2m_ns, d2m_ns_r)


class TraceDriver:
    """Feeds a hierarchy raw accesses with the sequential value oracle."""

    def __init__(self, hierarchy, seed: int = 0) -> None:
        self.hierarchy = hierarchy
        self.space = AddressSpace(hierarchy.amap, 0, PageAllocator())
        self.oracle = VersionOracle()
        self.rng = random.Random(seed)

    def access(self, core: int, kind: AccessKind, vaddr: int):
        acc = Access(core, kind, vaddr)
        paddr = self.space.translate(vaddr)
        line = self.hierarchy.amap.line_of(paddr)
        if kind is AccessKind.STORE:
            version = self.oracle.on_store(line)
            return self.hierarchy.access(acc, paddr, version)
        outcome = self.hierarchy.access(acc, paddr)
        self.oracle.check_load(line, outcome.version)
        return outcome

    def load(self, core: int, vaddr: int):
        return self.access(core, AccessKind.LOAD, vaddr)

    def store(self, core: int, vaddr: int):
        return self.access(core, AccessKind.STORE, vaddr)

    def ifetch(self, core: int, vaddr: int):
        return self.access(core, AccessKind.IFETCH, vaddr)

    def random_burst(self, count: int, cores: int,
                     shared_bytes: int = 1 << 16,
                     private_bytes: int = 1 << 17,
                     kinds: Optional[Iterable[AccessKind]] = None) -> None:
        """A mixed shared/private random trace (oracle-checked)."""
        kind_pool = list(kinds) if kinds else [
            AccessKind.IFETCH, AccessKind.LOAD, AccessKind.LOAD,
            AccessKind.STORE,
        ]
        for _ in range(count):
            core = self.rng.randrange(cores)
            kind = self.rng.choice(kind_pool)
            if self.rng.random() < 0.35:
                vaddr = self.rng.randrange(shared_bytes) & ~0x3
            else:
                vaddr = (1 << 20) * (core + 1) + (
                    self.rng.randrange(private_bytes) & ~0x3
                )
            if kind is AccessKind.IFETCH:
                vaddr = (1 << 28) + (vaddr & 0x7FFF)
            self.access(core, kind, vaddr)
