"""Unit tests for the D2M node (metadata stores + promotion/spill)."""

import pytest

from tests.helpers import small_config
from repro.common.errors import InvariantViolation
from repro.common.params import d2m_fs
from repro.common.types import AccessKind
from repro.core.li import LI
from repro.core.node import D2MNode, LookupPath
from repro.core.regions import ActiveSite, MD2Entry


def make_node():
    return D2MNode(0, small_config(d2m_fs(4)))


def md2_entry(pregion, private=True):
    return MD2Entry(pregion=pregion, private=private,
                    li=[LI.mem()] * 16)


class TestLookup:
    def test_miss_without_metadata(self):
        node = make_node()
        assert node.lookup(AccessKind.LOAD, 5).path is LookupPath.MISS

    def test_md1_hit_after_promotion(self):
        node = make_node()
        entry = md2_entry(7)
        node.insert_md2(entry)
        node.promote_to_md1(AccessKind.LOAD, 7, entry)
        assert node.lookup(AccessKind.LOAD, 7).path is LookupPath.MD1

    def test_cross_side_hit(self):
        node = make_node()
        entry = md2_entry(7)
        node.insert_md2(entry)
        node.promote_to_md1(AccessKind.LOAD, 7, entry)
        result = node.lookup(AccessKind.IFETCH, 7)
        assert result.path is LookupPath.MD1_CROSS


class TestActiveHolder:
    def test_md2_is_holder_before_promotion(self):
        node = make_node()
        entry = md2_entry(7)
        node.insert_md2(entry)
        assert node.active_holder(7) is entry

    def test_md1_is_holder_after_promotion(self):
        node = make_node()
        entry = md2_entry(7)
        node.insert_md2(entry)
        md1 = node.promote_to_md1(AccessKind.LOAD, 7, entry)
        assert node.active_holder(7) is md1
        assert entry.active_in is ActiveSite.MD1D

    def test_missing_region_raises(self):
        with pytest.raises(InvariantViolation):
            make_node().active_holder(99)

    def test_li_updates_go_to_active_holder(self):
        node = make_node()
        entry = md2_entry(7)
        node.insert_md2(entry)
        md1 = node.promote_to_md1(AccessKind.LOAD, 7, entry)
        node.set_li(7, 3, LI.in_l1(2, False))
        assert md1.li[3] == LI.in_l1(2, False)
        assert node.li_of(7, 3) == LI.in_l1(2, False)

    def test_private_bit_propagates(self):
        node = make_node()
        entry = md2_entry(7, private=True)
        node.insert_md2(entry)
        node.promote_to_md1(AccessKind.LOAD, 7, entry)
        node.set_region_private(7, False)
        assert not entry.private
        assert not node.region_private(7)


class TestMD1Spill:
    def test_md1_eviction_spills_li_to_md2(self):
        node = make_node()
        config = node.config
        sets = config.md1.sets
        # fill one MD1-D set beyond capacity
        victim_region = sets * 100  # all map to set 0 via % sets? use same set
        regions = [i * sets for i in range(config.md1.ways + 1)]
        entries = []
        for region in regions:
            entry = md2_entry(region)
            node.insert_md2(entry)
            md1 = node.promote_to_md1(AccessKind.LOAD, region, entry)
            md1.li[0] = LI.in_l1(1, False)
            entries.append(entry)
        # the first promoted region was evicted from MD1; its LI is in MD2
        first = entries[0]
        assert first.active_in is ActiveSite.MD2
        assert first.li[0] == LI.in_l1(1, False)
        assert node.active_holder(regions[0]) is first

    def test_double_promotion_rejected(self):
        node = make_node()
        entry = md2_entry(7)
        node.insert_md2(entry)
        node.promote_to_md1(AccessKind.LOAD, 7, entry)
        with pytest.raises(InvariantViolation):
            node.promote_to_md1(AccessKind.LOAD, 7, entry)


class TestMD2Capacity:
    def test_victim_preview_prefers_empty_regions(self):
        node = make_node()
        config = node.config
        sets = config.md2.sets
        regions = [i * sets for i in range(config.md2.ways)]
        for region in regions:
            node.insert_md2(md2_entry(region))
        # give region[1] a cached line so it is protected
        from repro.core.datastore import DataLine, LineRole
        node.l1d.put(0, 0, DataLine(
            regions[1] * 16, regions[1], 1, False, LineRole.REPLICA,
            rp=LI.mem()))
        victim = node.md2_victim_for(config.md2.ways * sets)
        assert victim is not None
        assert victim.pregion != regions[1]

    def test_drop_md2_removes_md1_too(self):
        node = make_node()
        entry = md2_entry(7)
        node.insert_md2(entry)
        node.promote_to_md1(AccessKind.LOAD, 7, entry)
        node.drop_md2(7)
        assert not node.has_region(7)
        assert node.lookup(AccessKind.LOAD, 7).path is LookupPath.MISS
