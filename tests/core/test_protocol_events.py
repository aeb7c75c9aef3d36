"""Directed tests for the D2M coherence events (paper appendix A-F)."""

import pytest

from tests.helpers import TraceDriver
from repro.common.params import d2m_fs
from repro.common.types import HitLevel
from repro.core.hierarchy import build_hierarchy
from repro.core.invariants import check_invariants
from repro.core.regions import RegionClass


@pytest.fixture
def fs():
    return TraceDriver(build_hierarchy(d2m_fs(4)))


def region_of(driver, vaddr):
    return driver.hierarchy.amap.region_of(driver.space.translate(vaddr))


class TestEventD:
    def test_d4_uncached_to_private(self, fs):
        out = fs.load(0, 0x1000)
        assert out.level is HitLevel.MEMORY
        assert out.private_region is True
        assert fs.hierarchy.events.get("D4") == 1
        assert fs.hierarchy.md3.classification(
            region_of(fs, 0x1000)) is RegionClass.PRIVATE

    def test_d2_private_to_shared(self, fs):
        fs.load(0, 0x1000)
        out = fs.load(1, 0x1000)
        assert fs.hierarchy.events.get("D2") == 1
        assert out.private_region is False
        assert fs.hierarchy.md3.classification(
            region_of(fs, 0x1000)) is RegionClass.SHARED

    def test_d3_shared_to_shared(self, fs):
        fs.load(0, 0x1000)
        fs.load(1, 0x1000)
        fs.load(2, 0x1000)
        assert fs.hierarchy.events.get("D3") == 1

    def test_d_events_block_and_unblock(self, fs):
        fs.load(0, 0x1000)
        locks = fs.hierarchy.md3.locks
        assert locks.stats.get("acquires") == locks.stats.get("releases") > 0


class TestEventA:
    def test_read_miss_md_hit_is_event_a(self, fs):
        fs.load(0, 0x1000)                 # D4 (not A)
        fs.load(0, 0x1000 + 64)            # same region: MD hit, event A
        assert fs.hierarchy.events.get("A") == 1
        assert fs.hierarchy.events.get("A_mem") == 1

    def test_direct_read_no_md3_interaction(self, fs):
        fs.load(0, 0x1000)
        lookups_before = fs.hierarchy.stats.get("md3.lookups")
        fs.load(0, 0x1000 + 64)            # event A: direct to memory
        assert fs.hierarchy.stats.get("md3.lookups") == lookups_before

    def test_remote_node_read(self, fs):
        fs.load(1, 0x1000 + 512)           # node 1 gets the region metadata
        fs.store(0, 0x1000)                # event C: master moves to node 0
        out = fs.load(1, 0x1000)           # MD hit, LI=Node0: event A
        assert out.level is HitLevel.REMOTE_NODE
        assert out.version == 1
        assert fs.hierarchy.events.get("A_node") == 1

    def test_reads_do_not_move_the_master(self, fs):
        fs.store(0, 0x1000)
        fs.load(1, 0x1000)
        fs.store(2, 0x1000)                # must find node 0 as master
        assert fs.hierarchy.events.get("C") >= 1
        out = fs.load(3, 0x1000)
        assert out.version == 2


class TestEventB:
    def test_private_write_is_silent(self, fs):
        fs.load(0, 0x1000)
        msgs = fs.hierarchy.network.total_messages
        invs = fs.hierarchy.stats.get("invalidations_received")
        fs.store(0, 0x1000)                # write hit on private replica
        assert fs.hierarchy.stats.get("invalidations_received") == invs
        assert fs.hierarchy.network.total_messages == msgs

    def test_private_write_miss_counts_b(self, fs):
        fs.load(0, 0x1000)
        fs.store(0, 0x1000 + 128)          # different line, cold: event B
        assert fs.hierarchy.events.get("B") == 1


class TestEventC:
    def test_shared_write_invalidates_sharers(self, fs):
        fs.load(0, 0x1000)
        fs.load(1, 0x1000)
        fs.store(0, 0x1000)
        assert fs.hierarchy.events.get("C") == 1
        assert fs.hierarchy.stats.get("invalidations_received") >= 1
        assert fs.load(1, 0x1000).version == 1

    def test_write_write_ping_pong(self, fs):
        fs.load(0, 0x1000)
        fs.load(1, 0x1000)
        line = fs.hierarchy.amap.line_of(fs.space.translate(0x1000))
        for step in range(6):
            writer = step % 2
            fs.store(writer, 0x1000)
            # TraceDriver's oracle rejects any stale read; assert the
            # reader observed exactly the latest version.
            out = fs.load(1 - writer, 0x1000)
            assert out.version == fs.oracle.latest(line) == step + 1

    def test_c_blocks_region(self, fs):
        fs.load(0, 0x1000)
        fs.load(1, 0x1000)
        fs.store(0, 0x1000)
        locks = fs.hierarchy.md3.locks
        assert locks.stats.get("acquires") == locks.stats.get("releases")


class TestEventsEF:
    def _evict_l1_masters(self, driver, base, cfg):
        # The L1 victim policy prefers replicas, so conflicting MASTERS
        # (stores) are needed to push the line-0 master out of its set.
        span = cfg.l1d.sets * cfg.line_size
        for i in range(1, cfg.l1d.ways + 2):
            driver.store(0, base + i * span)

    def test_private_master_eviction_is_event_e(self, fs):
        cfg = fs.hierarchy.config
        fs.store(0, 0x0)
        self._evict_l1_masters(fs, 0, cfg)
        assert fs.hierarchy.events.get("E") >= 1
        out = fs.load(0, 0x0)
        assert out.version == 1
        assert out.level in (HitLevel.LLC_LOCAL, HitLevel.LLC_REMOTE)

    def test_shared_master_eviction_is_event_f(self, fs):
        cfg = fs.hierarchy.config
        fs.load(1, 0x0)                    # make the region shared
        fs.store(0, 0x0)
        self._evict_l1_masters(fs, 0, cfg)
        assert fs.hierarchy.events.get("F") >= 1
        # node 1's pointer followed the NewMaster update
        assert fs.load(1, 0x0).version == 1

    def test_invariants_after_directed_flows(self, fs):
        for core in range(4):
            fs.load(core, 0x1000)
            fs.store(core, 0x2000 + core * 4096)
        check_invariants(fs.hierarchy.protocol)
