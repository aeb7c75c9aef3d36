"""Coherence sanitizer: corruption injection, forensics, equivalence.

The corruption tests drive a warmed-up machine, break one invariant by
hand (no protocol involvement, so no legitimate event explains the
state), and assert that **both** checkers see it: the plain full walk
(:func:`check_invariants`) and the incremental sanitizer — whose
:class:`SanitizerViolation` must carry a forensic trace naming the
corrupted line, including the injected corruption event.
"""

import pickle

import pytest

from tests.helpers import D2M_FACTORIES, TraceDriver, small_config
from repro.analysis import CoherenceSanitizer, SanitizerViolation, attach_sanitizer
from repro.analysis.events import EventRing
from repro.common.errors import InvariantViolation
from repro.common.observe import attach
from repro.common.params import base_2l, d2m_fs, d2m_ns_r
from repro.core.datastore import LineRole
from repro.core.hierarchy import build_hierarchy
from repro.core.invariants import (
    _region_nodes,
    _resolve_li,
    check_invariants,
    llc_slots,
    machine_regions,
)
from repro.core.li import LI
from repro.sim.simulator import Simulator
from repro.workloads.registry import make_workload


def warmed_machine(factory=d2m_fs, seed=5, accesses=1500):
    """A churned small machine with the sanitizer attached afterwards."""
    config = small_config(factory(4))
    hierarchy = build_hierarchy(config)
    driver = TraceDriver(hierarchy, seed=seed)
    driver.random_burst(accesses, cores=4)
    sanitizer = attach_sanitizer(hierarchy)
    assert sanitizer is not None
    return hierarchy.protocol, sanitizer


def all_slots_of_line(protocol, line):
    """Every (slot, region) holding ``line`` in node arrays and the LLC."""
    found = []
    for node in protocol.nodes:
        for array in node.arrays():
            for _s, _w, slot in array:
                if slot.line == line:
                    found.append(slot)
    for _key, slot in llc_slots(protocol):
        if slot.line == line:
            found.append(slot)
    return found


def assert_both_checkers_catch(protocol, sanitizer, pregion, line):
    """The full walk and the sanitizer both reject the corrupted state;
    the sanitizer's forensic report names the corrupted line and shows
    the injected corruption event."""
    with pytest.raises(InvariantViolation):
        check_invariants(protocol)
    sanitizer.note("test.corruption", region=pregion, line=line)
    with pytest.raises(SanitizerViolation) as excinfo:
        sanitizer.flush()
    violation = excinfo.value
    assert violation.report, "violation must carry a forensic report"
    assert "test.corruption" in violation.report
    assert f"line={line:#x}" in violation.report
    assert str(violation).startswith("sanitizer:")
    return violation


class TestCorruptionInjection:
    def test_duplicate_master(self):
        protocol, sanitizer = warmed_machine(seed=5)
        target_line = None
        for pregion in machine_regions(protocol):
            for node in protocol.nodes:
                for array in node.arrays():
                    for _s, _w, slot in array.lines_of_region(pregion):
                        if len(all_slots_of_line(protocol, slot.line)) >= 2:
                            target_line, target_region = slot.line, pregion
                            break
        assert target_line is not None, "no doubly-cached line to corrupt"
        for slot in all_slots_of_line(protocol, target_line):
            slot.role = LineRole.MASTER
        violation = assert_both_checkers_catch(
            protocol, sanitizer, target_region, target_line)
        assert "masters" in str(violation)

    def test_stale_mem_li_over_dirty_master(self):
        protocol, sanitizer = warmed_machine(seed=6)
        amap = protocol.amap
        found = None
        for pregion in machine_regions(protocol):
            for node, holder in _region_nodes(protocol, pregion):
                if not holder.private:
                    continue  # private: node is the region's only holder
                for idx, li in enumerate(holder.li):
                    if not li.is_local_cache:
                        continue
                    line = amap.line_of_region(pregion, idx)
                    slot = _resolve_li(protocol, node, li, line,
                                       holder.scramble)
                    if slot.role is LineRole.MASTER:
                        found = (pregion, holder, idx, line, slot)
                        break
        assert found is not None, "no private local master to corrupt"
        pregion, holder, idx, line, slot = found
        slot.dirty = True
        slot.version = protocol.memory.peek(line) + 1
        holder.li[idx] = LI.mem()
        violation = assert_both_checkers_catch(
            protocol, sanitizer, pregion, line)
        assert "stale MEM pointer" in str(violation)

    def test_pb_private_mismatch(self):
        protocol, sanitizer = warmed_machine(seed=7)
        found = None
        for pregion in machine_regions(protocol):
            for node, holder in _region_nodes(protocol, pregion):
                if holder.private:
                    found = (pregion, node)
                    break
        assert found is not None, "no private region to corrupt"
        pregion, node = found
        other = (node.node + 1) % len(protocol.nodes)
        protocol.md3.peek(pregion).pb.add(other)
        line = protocol.amap.line_of_region(pregion, 0)
        violation = assert_both_checkers_catch(
            protocol, sanitizer, pregion, line)
        assert "private" in str(violation)

    def test_orphaned_md1_entry(self):
        protocol, sanitizer = warmed_machine(seed=8)
        found = None
        for pregion in machine_regions(protocol):
            for node in protocol.nodes:
                if node.md1_active(pregion):
                    found = (pregion, node)
                    break
        assert found is not None, "no MD1-active region to corrupt"
        pregion, node = found
        node.md2.invalidate(pregion)  # MD1 entry now lacks MD2 backing
        line = protocol.amap.line_of_region(pregion, 0)
        violation = assert_both_checkers_catch(
            protocol, sanitizer, pregion, line)
        assert "MD2 backing" in str(violation) or "MD2" in str(violation)

    def test_unreachable_tracked_llc_slot(self):
        protocol, sanitizer = warmed_machine(seed=9)
        amap = protocol.amap
        found = None
        for pregion in machine_regions(protocol):
            for _ref, slot in protocol.llc.lines_of_region(pregion):
                if slot.tracked_by_node is None:
                    continue
                # Keep the location check quiet: the line must have no
                # dirty copy anywhere, so a MEM pointer is "current".
                if any(s.dirty for s in all_slots_of_line(protocol,
                                                          slot.line)):
                    continue
                tracker = protocol.nodes[slot.tracked_by_node]
                holder = tracker.active_holder(pregion)
                idx = amap.line_index_in_region(slot.line)
                found = (pregion, holder, idx, slot.line)
                break
        assert found is not None, "no clean node-tracked LLC slot"
        pregion, holder, idx, line = found
        holder.li[idx] = LI.mem()  # tracker forgets its tracked slot
        violation = assert_both_checkers_catch(
            protocol, sanitizer, pregion, line)
        assert "unreachable" in str(violation)


class TestShadowModel:
    def test_out_of_band_mutation_caught_by_rotation(self):
        """Legal-looking state changed with no event -> rotation flags it."""
        protocol, sanitizer = warmed_machine(seed=10)
        # Fingerprint every region first.
        sanitizer.run_full_walk()
        corrupted = None
        for pregion in machine_regions(protocol):
            entry = protocol.md3.peek(pregion)
            if entry is None:
                continue
            nodes_with = [n for n in protocol.nodes if n.has_region(pregion)]
            if len(nodes_with) == 1 and not nodes_with[0].region_private(
                    pregion):
                # Flipping a shared single-holder region to private is a
                # *legal* final state, so only the fingerprint drift (no
                # event since its snapshot) can catch the mutation.
                nodes_with[0].set_region_private(pregion, True)
                corrupted = pregion
                break
        assert corrupted is not None, "no region eligible for silent flip"
        with pytest.raises(SanitizerViolation) as excinfo:
            for _ in range(len(sanitizer._shadow) + 1):
                sanitizer._rotate(exclude=set())
        assert "out-of-band" in str(excinfo.value)
        assert excinfo.value.region == corrupted

    def test_pb_mirror_cross_check(self):
        protocol, sanitizer = warmed_machine(seed=11)
        pregion = next(p for p, _ in protocol.md3)
        # Corrupt the mirror (not the machine): a missed/spurious event.
        sanitizer._pb.setdefault(pregion, set()).add(99)
        sanitizer.note("test.corruption", region=pregion)
        with pytest.raises(SanitizerViolation) as excinfo:
            sanitizer.flush()
        assert "PB mirror mismatch" in str(excinfo.value)

    def test_full_walk_sampling_every_k(self):
        config = small_config(d2m_fs(2))
        hierarchy = build_hierarchy(config)
        sanitizer = attach_sanitizer(hierarchy, every=10)
        driver = TraceDriver(hierarchy, seed=12)
        driver.random_burst(95, cores=2)
        assert sanitizer.accesses == 95
        assert sanitizer.full_walks == 9


class TestEquivalenceAndLifecycle:
    @pytest.mark.parametrize("factory", D2M_FACTORIES)
    def test_sanitized_run_keeps_stats_identical(self, factory):
        def run(sanitize):
            config = small_config(factory(4))
            hierarchy = build_hierarchy(config)
            if sanitize:
                assert attach_sanitizer(hierarchy, every=100) is not None
            TraceDriver(hierarchy, seed=14).random_burst(600, cores=4)
            return hierarchy.stats.flatten()

        assert run(False) == run(True)

    @pytest.mark.parametrize("factory", D2M_FACTORIES)
    def test_attached_from_cold_start_stays_clean(self, factory):
        """Every emit site fires from access #1; no false positives."""
        config = small_config(factory(4))
        hierarchy = build_hierarchy(config)
        sanitizer = attach_sanitizer(hierarchy, every=150)
        driver = TraceDriver(hierarchy, seed=15)
        driver.random_burst(900, cores=4)
        assert sanitizer.regions_checked > 0
        assert sanitizer.rotation_checks > 0
        assert sanitizer.full_walks == 6

    def test_sanitizer_joins_already_attached_observers(self):
        # regression: attaching the sanitizer used to overwrite the
        # tracer slots, silently evicting an event ring attached first
        config = d2m_fs(2)
        hierarchy = build_hierarchy(config)
        ring = EventRing()
        attach(hierarchy, ring)
        sanitizer = attach_sanitizer(hierarchy)
        workload = make_workload("fft", config.nodes, hierarchy.amap, seed=3)
        Simulator(hierarchy).run(workload, 600, seed=3)
        assert sanitizer.events_seen > 0
        assert ring.recorded == sanitizer.events_seen

    def test_baseline_hierarchy_gets_no_sanitizer(self):
        hierarchy = build_hierarchy(base_2l(2))
        assert attach_sanitizer(hierarchy) is None

    def test_sanitized_machine_is_picklable(self):
        """Parallel sweeps ship outcomes through the pool; the attached
        sanitizer (ring included) must survive the round-trip."""
        config = small_config(d2m_fs(2))
        hierarchy = build_hierarchy(config)
        sanitizer = attach_sanitizer(hierarchy)
        TraceDriver(hierarchy, seed=16).random_burst(200, cores=2)
        clone = pickle.loads(pickle.dumps(hierarchy))
        (restored,) = clone.protocol.tracer.watchers
        assert isinstance(restored, CoherenceSanitizer)
        assert clone.protocol.md3.tracer is clone.protocol.tracer
        assert restored.accesses == sanitizer.accesses
        assert len(restored.ring) == len(sanitizer.ring)
        restored.run_full_walk()  # the clone is still checkable

    def test_pickled_clone_keeps_running_identically(self):
        """Sets are created on first fill; a clone's never-filled rows
        (one shared empty tuple per data array) must fill exactly as the
        original's do."""
        hierarchy = build_hierarchy(d2m_ns_r(4))
        driver = TraceDriver(hierarchy, seed=19)
        driver.random_burst(2000, cores=4)
        clone = pickle.loads(pickle.dumps(driver))
        l1d = clone.hierarchy.protocol.nodes[0].l1d
        assert len({id(row) for row in l1d._slots
                    if not isinstance(row, list)}) == 1
        for each in (driver, clone):
            each.random_burst(2000, cores=4)
        assert (clone.hierarchy.stats.flatten()
                == hierarchy.stats.flatten())


class TestForensicReport:
    def test_report_filters_by_region_and_includes_tail(self):
        protocol, sanitizer = warmed_machine(seed=17)
        pregion = machine_regions(protocol)[0]
        sanitizer.note("test.corruption", region=pregion, line=0x123)
        violation = sanitizer._violation("synthetic", pregion)
        assert f"last events touching region {pregion:#x}:" in violation.report
        assert "most recent events (all regions):" in violation.report
        assert "test.corruption" in violation.report
        assert violation.region == pregion

    def test_message_layout_summary_line_first(self):
        """RunFailure summarization picks the last non-indented line, so
        every continuation line of the message must be indented."""
        protocol, sanitizer = warmed_machine(seed=18)
        pregion = machine_regions(protocol)[0]
        violation = sanitizer._violation("synthetic", pregion)
        lines = str(violation).splitlines()
        assert lines[0].startswith("sanitizer: synthetic")
        assert all(line.startswith(" ") for line in lines[1:] if line)
