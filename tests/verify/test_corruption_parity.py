"""Sanitizer <-> spec parity: one corruption class, caught at both layers.

Each case seeds the *same* class of invariant violation twice — once
into a real warmed-up machine (where the full invariant walk and the
incremental sanitizer must both reject it) and once into the model
checker's abstract state (where the matching ``_d2m_check`` invariant
must fire).  This pins the sanitizer's shadow model and the declarative
spec's invariants to each other: a rule dropped from either side breaks
the pairing.
"""

import pytest

from tests.helpers import TraceDriver, llc_slots, small_config
from repro.analysis import SanitizerViolation, attach_sanitizer
from repro.common.errors import InvariantViolation
from repro.common.params import d2m_fs
from repro.core.datastore import LineRole
from repro.core.hierarchy import build_hierarchy
from repro.core.invariants import (
    check_invariants,
    machine_regions,
    region_view,
)
from repro.verify.model import LLC, MEM, _d2m_check


def warmed_machine(seed):
    config = small_config(d2m_fs(4))
    hierarchy = build_hierarchy(config)
    TraceDriver(hierarchy, seed=seed).random_burst(1500, cores=4)
    sanitizer = attach_sanitizer(hierarchy)
    return hierarchy.protocol, sanitizer


def all_slots_of_line(protocol, line):
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


def assert_machine_rejects(protocol, sanitizer, pregion, line):
    with pytest.raises(InvariantViolation):
        check_invariants(protocol)
    sanitizer.note("test.corruption", region=pregion, line=line)
    with pytest.raises(SanitizerViolation):
        sanitizer.flush()


class TestCorruptionParity:
    def test_duplicate_master_swmr(self):
        # Machine: promote every cached copy of one line to MASTER.
        protocol, sanitizer = warmed_machine(seed=11)
        target = None
        for pregion in machine_regions(protocol):
            for node in protocol.nodes:
                for array in node.arrays():
                    for _s, _w, slot in array.lines_of_region(pregion):
                        if len(all_slots_of_line(protocol, slot.line)) >= 2:
                            target = (pregion, slot.line)
                            break
        assert target is not None, "no doubly-cached line to corrupt"
        pregion, line = target
        for slot in all_slots_of_line(protocol, line):
            slot.role = LineRole.MASTER
        assert_machine_rejects(protocol, sanitizer, pregion, line)

        # Model: a node master that holds no actual copy is the same
        # single-writer bookkeeping break.
        bad = ((True, frozenset({0}), True),
               ((0, frozenset(), frozenset({MEM})),))
        assert _d2m_check(bad)[0] == "swmr"

    def test_pb_private_mismatch_md_tracking(self):
        # Machine: add a second presence bit to a private region.
        protocol, sanitizer = warmed_machine(seed=12)
        found = None
        for pregion in machine_regions(protocol):
            for node, holder in region_view(protocol, pregion).holders():
                if holder.private:
                    found = (pregion, node)
                    break
            if found:
                break
        assert found is not None, "no private region to corrupt"
        pregion, node = found
        protocol.md3.peek(pregion).pb.add(
            (node.node + 1) % len(protocol.nodes))
        line = protocol.amap.line_of_region(pregion, 0)
        assert_machine_rejects(protocol, sanitizer, pregion, line)

        # Model: private region with |PB| > 1 is the same invariant.
        bad = ((True, frozenset({0, 1}), True),
               ((None, frozenset(), frozenset({MEM})),))
        kind, detail = _d2m_check(bad)
        assert kind == "md-tracking"
        assert "private" in detail

    def test_untracked_cached_data_md_tracking(self):
        # Machine: drop a region's MD3 entry while its lines stay cached.
        protocol, sanitizer = warmed_machine(seed=13)
        target = None
        for pregion in machine_regions(protocol):
            if (protocol.md3.peek(pregion) is not None
                    and region_view(protocol, pregion).holders()):
                target = pregion
                break
        assert target is not None, "no tracked region with cached data"
        protocol.md3.drop(target)
        line = protocol.amap.line_of_region(target, 0)
        assert_machine_rejects(protocol, sanitizer, target, line)

        # Model: cached data without an MD3 entry.
        bad = ((False, frozenset(), False),
               ((LLC, frozenset(), frozenset({LLC})),))
        assert _d2m_check(bad)[0] == "md-tracking"
