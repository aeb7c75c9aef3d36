"""Surgical tests for protocol corner paths."""

import pytest

from tests.helpers import TraceDriver
from repro.common.params import d2m_fs
from repro.common.types import HitLevel
from repro.core.hierarchy import build_hierarchy
from repro.core.invariants import check_invariants
from repro.noc.messages import MessageKind


@pytest.fixture
def fs():
    return TraceDriver(build_hierarchy(d2m_fs(4)))


class TestStaleMemRedirect:
    def test_hub_redirects_stale_pointer(self, fs):
        # nodes 0..2 share the region so everyone holds metadata; node 0
        # then fills line X as the global master; node 3 joined before the
        # fill, so its pointer is stale MEM and must be redirected.
        for core in range(4):
            fs.load(core, 0x5040)   # neighbouring line: metadata only
        fs.load(0, 0x5000)          # global fill by node 0
        before = fs.hierarchy.stats.get("mem_reads_redirected")
        out = fs.load(3, 0x5000)
        assert fs.hierarchy.stats.get("mem_reads_redirected") == before + 1
        assert out.level is HitLevel.LLC_REMOTE
        # the redirect healed node 3's chain: its next miss goes direct
        check_invariants(fs.hierarchy.protocol)

    def test_redirect_preserves_value(self, fs):
        for core in range(2):
            fs.load(core, 0x5040)
        fs.load(0, 0x5000)
        assert fs.load(1, 0x5000).version == 0  # oracle also checks


class TestWritebackGuard:
    def test_victim_slot_never_rolls_memory_back(self, fs):
        # store twice: the reserved victim slot holds version-1 data while
        # the L1 master holds version 2; evicting both must leave memory
        # at the newest version.
        fs.store(0, 0x0)
        fs.store(0, 0x0)
        cfg = fs.hierarchy.config
        span = cfg.l1d.sets * cfg.line_size
        for i in range(1, cfg.l1d.ways + 2):
            fs.store(0, i * span)
        line = fs.hierarchy.amap.line_of(fs.space.translate(0x0))
        assert fs.load(1, 0x0).version == 2
        assert fs.hierarchy.memory.peek(line) <= 2
        check_invariants(fs.hierarchy.protocol)


class TestDoneMessages:
    def test_every_blocking_op_completes(self, fs):
        fs.random_burst(4000, cores=4)
        locks = fs.hierarchy.md3.locks
        assert locks.stats.get("acquires") == locks.stats.get("releases")
        for pregion in range(0, 1 << 12):
            assert not locks.held(pregion)


class TestRPUpdateMessages:
    def test_llc_eviction_of_node_tracked_slot_notifies_tracker(self):
        # Near-side: node 0's private data lives in its own slice, so the
        # RP update is slice-local (free); force a remote-slice case via
        # pressure skew instead — here we just assert the counter exists
        # on the far-side machine where every slot is remote.
        driver = TraceDriver(build_hierarchy(d2m_fs(2)), seed=61)
        driver.random_burst(6000, cores=2, private_bytes=1 << 20)
        updates = driver.hierarchy.network.messages_of(MessageKind.RP_UPDATE)
        spills = driver.hierarchy.network.messages_of(MessageKind.MD2_SPILL)
        assert updates >= 0 and spills >= 0  # counters wired
        check_invariants(driver.hierarchy.protocol)


class TestPrivateWriteTraffic:
    def test_b_events_send_no_coherence_messages(self, fs):
        fs.load(0, 0x7000)  # private region
        coherence_kinds = (MessageKind.INVALIDATE, MessageKind.INV_ACK,
                           MessageKind.READ_EX_REQ, MessageKind.NEW_MASTER)
        before = [fs.hierarchy.network.messages_of(k)
                  for k in coherence_kinds]
        for i in range(16):
            fs.store(0, 0x7000 + i * 64)
        after = [fs.hierarchy.network.messages_of(k)
                 for k in coherence_kinds]
        assert before == after


class TestPKMOOrdering:
    def test_reads_dominate_writes(self, fs):
        fs.random_burst(8000, cores=4)
        events = fs.hierarchy.events
        assert events.get("A") > events.get("B") + events.get("C")
