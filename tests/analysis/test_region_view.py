"""The per-region view and the sanitizer's MD1 index.

A region check gathers the region's state once (:class:`RegionView`)
and reads MD1 through lookups: the whole-machine walk from one scan of
every MD1 store, the sanitizer from an index fed by ``md1.promote``
events.  These tests pin the view and the index to exhaustive scans of
the machine, and show that an MD1 entry planted behind the index is
caught by the full walk.
"""

import pytest

from tests.helpers import D2M_FACTORIES, TraceDriver, llc_slots, small_config
from repro.analysis import (
    CoherenceSanitizer,
    SanitizerViolation,
    attach_sanitizer,
)
from repro.common.errors import InvariantViolation
from repro.common.params import d2m_fs, d2m_ns, d2m_ns_r
from repro.core.datastore import DataLine, LineRole
from repro.core.hierarchy import build_hierarchy
from repro.core.invariants import (
    check_invariants,
    check_region_invariants,
    fingerprint_view,
    machine_regions,
    md1_index,
    region_view,
)
from repro.core.regions import ActiveSite, MD1Entry
from repro.sim.runner import run_workload


def warmed(factory, seed, accesses=1500, every=0):
    """A churned small 4-node machine, sanitized from its first access."""
    hierarchy = build_hierarchy(small_config(factory(4)))
    sanitizer = attach_sanitizer(hierarchy, every=every)
    TraceDriver(hierarchy, seed=seed).random_burst(accesses, cores=4)
    return hierarchy, sanitizer


def scanned_regions(protocol):
    """Every region in the machine, from every slot of every structure."""
    regions = set()
    for node in protocol.nodes:
        regions.update(pregion for pregion, _entry in node.md2)
        for store in (node.md1i, node.md1d):
            regions.update(entry.pregion for _vregion, entry in store)
        for array in node.arrays():
            regions.update(slot.region for _s, _w, slot in array)
    regions.update(slot.region for _key, slot in llc_slots(protocol))
    regions.update(pregion for pregion, _entry in protocol.md3)
    return sorted(regions)


class TestMachineRegions:
    @pytest.mark.parametrize("factory", D2M_FACTORIES)
    @pytest.mark.parametrize("seed", [3, 4])
    def test_equals_an_exhaustive_slot_scan(self, factory, seed):
        hierarchy, _ = warmed(factory, seed)
        protocol = hierarchy.protocol
        regions = machine_regions(protocol)
        assert regions == scanned_regions(protocol)
        assert len(regions) > 20

    @pytest.mark.parametrize("where", ["node", "llc"])
    def test_a_line_nothing_else_knows_is_found(self, where):
        """A line planted into a free slot, of a region no metadata
        names: the region index finds it and the walk rejects it."""
        hierarchy, _ = warmed(d2m_ns_r, seed=6)
        protocol = hierarchy.protocol
        array = (protocol.nodes[1].l1d if where == "node"
                 else protocol.llc.arrays()[-1][1])
        set_idx = next(s for s in range(array.sets)
                       if array.free_way(s) is not None)
        orphan = max(scanned_regions(protocol)) + 1
        array.put(set_idx, array.free_way(set_idx), DataLine(
            line=protocol.amap.line_of_region(orphan, 0), region=orphan,
            version=0, dirty=False, role=LineRole.MASTER))
        assert orphan in machine_regions(protocol)
        assert machine_regions(protocol) == scanned_regions(protocol)
        with pytest.raises(InvariantViolation):
            check_invariants(protocol)


class TestRegionView:
    @pytest.mark.parametrize("factory", D2M_FACTORIES)
    def test_view_holds_exactly_the_regions_state(self, factory):
        hierarchy, _ = warmed(factory, seed=5)
        protocol = hierarchy.protocol
        scan = md1_index(protocol)
        for pregion in machine_regions(protocol):
            view = region_view(protocol, pregion)
            assert view.md1 == scan.get(pregion, {})
            assert view.md3 is protocol.md3.peek(pregion)
            assert list(view.nodes) == [n.node for n in protocol.nodes
                                        if n.has_region(pregion)]
            for node_id, (node, _entry, _holder) in view.nodes.items():
                assert view.holder(node_id) is node.active_holder(pregion)
            cached = {node.node: [(array, array.lines_of_region(pregion))
                                  for array in node.arrays()
                                  if array.lines_of_region(pregion)]
                      for node in protocol.nodes}
            assert view.cached == {n: rows for n, rows in cached.items()
                                   if rows}
            llc = [((ref.slice_owner, ref.set_idx, ref.way), slot)
                   for ref, slot in protocol.llc.lines_of_region(pregion)]
            assert [((owner, s, w), slot) for owner, rows in view.llc
                    for s, w, slot in rows] == llc
            masters = {}
            for node_id, held in view.cached.items():
                for array, rows in held:
                    for _s, _w, slot in rows:
                        if slot.role is LineRole.MASTER:
                            masters.setdefault(slot.line, []).append(
                                (array.name, slot))
            for key, slot in llc:
                if slot.role is LineRole.MASTER:
                    masters.setdefault(slot.line, []).append((key, slot))
            assert dict(view.masters) == masters


class TestFingerprintView:
    """The sanitizer's rotation fingerprints a lean view: the nodes with
    metadata, their rows, the LLC rows and MD3."""

    @pytest.mark.parametrize("factory", D2M_FACTORIES)
    def test_lean_view_fingerprints_like_the_full_view(self, factory):
        hierarchy = build_hierarchy(small_config(factory(4)))
        sanitizer = attach_sanitizer(hierarchy)
        driver = TraceDriver(hierarchy, seed=41)
        protocol = hierarchy.protocol
        fingerprint = CoherenceSanitizer._fingerprint
        compared = 0
        for _burst in range(6):
            driver.random_burst(250, cores=4)
            for pregion in machine_regions(protocol):
                full = region_view(protocol, pregion)
                lean = fingerprint_view(protocol, pregion)
                assert lean.nodes == full.nodes
                assert lean.md3 is full.md3 and lean.llc == full.llc
                assert fingerprint(lean) == fingerprint(full)
                compared += 1
        assert compared > 100 and sanitizer.rotation_checks > 0

    def test_dangling_tracking_pointer_fails_the_rotation(self):
        hierarchy, sanitizer = warmed(d2m_fs, seed=42)
        protocol = hierarchy.protocol
        sanitizer.run_full_walk()  # fingerprint every region
        node, pregion, md2_entry = next(
            (node, pregion, entry)
            for pregion in sorted(sanitizer._shadow)
            for node in protocol.nodes
            for entry in [node.md2.lookup(pregion, touch=False)]
            if entry is not None and entry.active_in is not ActiveSite.MD2)
        store = node.md1i if md2_entry.active_in is ActiveSite.MD1I \
            else node.md1d
        md2_entry.tp_vregion = free_md1_key(store)
        sanitizer._rotation_queue = [pregion]
        with pytest.raises(SanitizerViolation) as excinfo:
            sanitizer._rotate(exclude=set())
        assert f"rotation check of region {pregion:#x}" in \
            str(excinfo.value)
        assert excinfo.value.region == pregion


class TestIncrementalParity:
    @pytest.mark.parametrize("factory, seed", [
        (d2m_fs, 21), (d2m_ns, 22), (d2m_ns_r, 23), (d2m_ns_r, 24)])
    def test_every_access_full_walk_agrees_with_incremental(self, factory,
                                                            seed):
        """A sanitizer that walks the whole machine after every access
        (which also asserts the MD1 index against the stores each time)
        and the incremental one run the same trace clean, leave the
        same statistics, and hold the same fingerprints."""
        full_h, full = warmed(factory, seed, accesses=300, every=1)
        inc_h, inc = warmed(factory, seed, accesses=300)
        assert full.full_walks == 300 and inc.full_walks == 0
        assert full_h.stats.flatten() == inc_h.stats.flatten()
        protocol = inc_h.protocol
        # Every fingerprint the incremental sanitizer holds is current:
        # equal to the one the last full walk took of the same state.
        assert inc._shadow and set(inc._shadow) <= set(full._shadow)
        for pregion, (fingerprint, _seq) in inc._shadow.items():
            assert fingerprint == full._shadow[pregion][0]
            view = region_view(protocol, pregion)
            assert fingerprint == inc._fingerprint(view)
        # The incremental index covers every MD1 entry in the machine.
        for pregion, by_node in md1_index(protocol).items():
            for node_id, rows in by_node.items():
                for site, vregion, _entry in rows:
                    assert (node_id, site, vregion) in inc._md1[pregion]
        inc.run_full_walk()


def free_md1_key(store):
    """A vregion key absent from ``store`` whose set has a free way."""
    for vregion in range(1 << 30, (1 << 30) + 4096):
        if (not store.contains(vregion)
                and store.set_occupancy(store.index_of(vregion))
                < store.ways):
            return vregion
    raise AssertionError("no free MD1 way")


def md2_active_region(protocol):
    """(node, region, MD2 entry) of a region whose LIs live in MD2."""
    for pregion in machine_regions(protocol):
        for node in protocol.nodes:
            entry = node.md2.lookup(pregion, touch=False)
            if entry is not None and entry.active_in is ActiveSite.MD2:
                return node, pregion, entry
    raise AssertionError("no MD2-active region")


class TestMD1Index:
    def test_seeded_from_the_stores_at_attach(self):
        hierarchy = build_hierarchy(small_config(d2m_fs(4)))
        TraceDriver(hierarchy, seed=31).random_burst(1500, cores=4)
        sanitizer = attach_sanitizer(hierarchy)
        assert sanitizer._md1
        sanitizer.run_full_walk()  # nothing behind a freshly seeded index

    def test_promote_behind_the_index_caught_by_the_full_walk(self):
        """A legal-looking MD1 promotion made with no event: the region
        invariants all hold, the per-access check reads MD1 through the
        index and cannot see it, and the full walk's scan reports it."""
        hierarchy, sanitizer = warmed(d2m_fs, seed=32)
        protocol = hierarchy.protocol
        node, pregion, md2_entry = md2_active_region(protocol)
        vregion = free_md1_key(node.md1d)
        assert node.md1d.insert(vregion, MD1Entry(
            vregion=vregion, pregion=pregion, private=md2_entry.private,
            li=list(md2_entry.li), scramble=md2_entry.scramble)) is None
        md2_entry.active_in = ActiveSite.MD1D
        md2_entry.tp_vregion = vregion
        check_invariants(protocol)  # a legal state
        sanitizer.note("test.corruption", region=pregion)
        sanitizer.flush()
        with pytest.raises(SanitizerViolation) as excinfo:
            sanitizer.run_full_walk()
        assert "missing from the MD1 index" in str(excinfo.value)
        assert excinfo.value.region == pregion

    def test_orphan_behind_the_index_caught_by_both_full_walks(self):
        """A second MD1 entry for a region, planted with no event: the
        exhaustive walks see an entry no tracking pointer names."""
        hierarchy, sanitizer = warmed(d2m_fs, seed=33)
        protocol = hierarchy.protocol
        node, pregion, md2_entry = md2_active_region(protocol)
        vregion = free_md1_key(node.md1i)
        node.md1i.insert(vregion, MD1Entry(
            vregion=vregion, pregion=pregion, private=md2_entry.private,
            li=list(md2_entry.li), scramble=md2_entry.scramble))
        with pytest.raises(InvariantViolation, match="does not name"):
            check_invariants(protocol)
        with pytest.raises(InvariantViolation, match="does not name"):
            check_region_invariants(protocol, pregion)
        with pytest.raises(SanitizerViolation, match="MD1 index"):
            sanitizer.run_full_walk()

    def test_hidden_entry_fails_a_plain_sanitized_run(self):
        """``--sanitize`` with no full-walk sampling: an MD1 entry
        planted with no event, after the run's last access, fails the
        run at its end-of-run index check."""
        planted = []

        class PlantHiddenMD1:
            def bind(self, hierarchy, result):
                self.protocol = hierarchy.protocol

            def finalize(self):
                node, pregion, md2_entry = next(
                    (node, pregion, entry)
                    for node in self.protocol.nodes
                    for pregion, entry in node.md2)
                vregion = free_md1_key(node.md1i)
                node.md1i.insert(vregion, MD1Entry(
                    vregion=vregion, pregion=pregion,
                    private=md2_entry.private, li=list(md2_entry.li),
                    scramble=md2_entry.scramble))
                planted.append(pregion)

        with pytest.raises(SanitizerViolation,
                           match="missing from the MD1 index") as excinfo:
            run_workload(d2m_fs(2), "water", instructions=2000, warmup=0,
                         sanitize=True, observers=[PlantHiddenMD1()])
        assert excinfo.value.region == planted[0]

    def test_stale_keys_are_dropped_when_the_region_is_checked(self):
        hierarchy, sanitizer = warmed(d2m_fs, seed=34, accesses=3000)
        protocol = hierarchy.protocol
        for pregion in list(sanitizer._md1):
            sanitizer._indexed_md1(pregion)
        live = {pregion: {(node_id, site, vregion)
                          for node_id, rows in by_node.items()
                          for site, vregion, _entry in rows}
                for pregion, by_node in md1_index(protocol).items()}
        assert sanitizer._md1 == live
