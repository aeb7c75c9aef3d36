"""Tests for dynamic coherence: classification, pruning, re-privatization."""

import pytest

from tests.helpers import TraceDriver
from repro.common.params import d2m_fs
from repro.core.hierarchy import build_hierarchy
from repro.core.regions import RegionClass


@pytest.fixture
def fs():
    return TraceDriver(build_hierarchy(d2m_fs(4)))


def pregion(driver, vaddr):
    return driver.hierarchy.amap.region_of(driver.space.translate(vaddr))


class TestClassificationLifecycle:
    def test_private_bit_set_on_first_touch(self, fs):
        fs.load(0, 0x1000)
        node = fs.hierarchy.nodes[0]
        assert node.region_private(pregion(fs, 0x1000))

    def test_private_bit_cleared_on_sharing(self, fs):
        fs.load(0, 0x1000)
        fs.load(1, 0x1000)
        region = pregion(fs, 0x1000)
        assert not fs.hierarchy.nodes[0].region_private(region)
        assert not fs.hierarchy.nodes[1].region_private(region)

    def test_d2_publishes_owner_locations(self, fs):
        fs.store(0, 0x1000)                # master in node 0
        fs.load(1, 0x1000 + 64)           # D2 conversion
        entry = fs.hierarchy.md3.peek(pregion(fs, 0x1000))
        idx = fs.hierarchy.amap.line_in_region(fs.space.translate(0x1000))
        from repro.core.li import LIKind
        assert entry.li[idx].kind is LIKind.NODE
        assert entry.li[idx].node == 0

    def test_untracked_after_spill(self, fs):
        # Fill node 0's MD2 beyond capacity to spill the first region.
        config = fs.hierarchy.config
        first = 0x1000
        fs.load(0, first)
        region = pregion(fs, first)
        sets = config.md2.sets
        region_size = config.region_size
        for i in range(1, config.md2.ways + 2):
            fs.load(0, first + i * sets * region_size)
        md3 = fs.hierarchy.md3
        assert md3.classification(region) in (RegionClass.UNTRACKED,
                                              RegionClass.PRIVATE)
        if md3.classification(region) is RegionClass.UNTRACKED:
            # data survived the spill: the re-read comes from LLC, and the
            # region is re-privatized via event D1
            out = fs.load(0, first)
            assert md3.classification(region) is RegionClass.PRIVATE


class TestPruning:
    def test_prune_reprivatizes(self, fs):
        region_addr = 0x1000
        fs.load(0, region_addr)            # node 0 private
        fs.store(1, region_addr)           # shared; node 1 masters
        # retire node 0's MD1 entry (MD1 is small)
        config = fs.hierarchy.config
        for i in range(config.md1.regions + 8):
            fs.load(0, 0x100_0000 + i * config.region_size)
        # node 1 writes every line: invalidations purge node 0's copies
        # and the pruning heuristic drops its MD2 entry
        for line in range(config.region_lines):
            fs.store(1, region_addr + line * 64)
        region = pregion(fs, region_addr)
        assert fs.hierarchy.stats.get("md2.prunes") >= 1
        assert fs.hierarchy.md3.classification(region) is RegionClass.PRIVATE
        assert fs.hierarchy.nodes[1].region_private(region)

    def test_private_write_after_reprivatization_is_silent(self, fs):
        self.test_prune_reprivatizes(fs)
        invs = fs.hierarchy.stats.get("invalidations_received")
        fs.store(1, 0x1000)
        assert fs.hierarchy.stats.get("invalidations_received") == invs
