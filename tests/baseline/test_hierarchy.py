"""Directed + randomized tests for the Base-2L/3L MESI hierarchies."""

import pytest

from tests.helpers import TraceDriver, small_config
from repro.common.errors import InvariantViolation
from repro.common.params import base_2l, base_3l, d2m_fs
from repro.common.types import HitLevel
from repro.baseline.hierarchy import BaselineHierarchy
from repro.core.hierarchy import build_hierarchy


class TestDirectedFlows:
    def setup_method(self):
        self.driver = TraceDriver(build_hierarchy(base_2l(4)))

    def test_cold_read_goes_to_memory(self):
        assert self.driver.load(0, 0x1000).level is HitLevel.MEMORY

    def test_second_read_hits_l1(self):
        self.driver.load(0, 0x1000)
        assert self.driver.load(0, 0x1000).level is HitLevel.L1

    def test_other_core_forwards_from_exclusive_owner(self):
        self.driver.load(0, 0x1000)  # Exclusive grant to core 0
        assert self.driver.load(1, 0x1000).level is HitLevel.REMOTE_NODE

    def test_third_core_hits_llc(self):
        self.driver.load(0, 0x1000)
        self.driver.load(1, 0x1000)  # downgrades the owner; both Shared
        assert self.driver.load(2, 0x1000).level is HitLevel.LLC_REMOTE

    def test_read_after_remote_write_forwards(self):
        self.driver.store(0, 0x1000)
        out = self.driver.load(1, 0x1000)
        assert out.level is HitLevel.REMOTE_NODE
        assert out.version == 1

    def test_write_invalidates_sharers(self):
        self.driver.load(0, 0x1000)
        self.driver.load(1, 0x1000)
        h = self.driver.hierarchy
        before = h.stats.get("invalidations_received")
        self.driver.store(0, 0x1000)
        assert h.stats.get("invalidations_received") > before
        # the old sharer must re-fetch and see the new version
        assert self.driver.load(1, 0x1000).version == 1

    def test_silent_e_to_m_upgrade(self):
        self.driver.load(0, 0x1000)       # Exclusive grant
        before = self.driver.hierarchy.network.total_messages
        out = self.driver.store(0, 0x1000)
        assert out.level is HitLevel.L1
        assert self.driver.hierarchy.network.total_messages == before

    def test_upgrade_on_shared_costs_messages(self):
        self.driver.load(0, 0x1000)
        self.driver.load(1, 0x1000)       # both Shared now
        before = self.driver.hierarchy.network.total_messages
        self.driver.store(0, 0x1000)
        assert self.driver.hierarchy.network.total_messages > before

    def test_writeback_preserves_data(self):
        cfg = small_config(base_2l(2))
        driver = TraceDriver(build_hierarchy(cfg))
        driver.store(0, 0x0)
        # push line 0 out of core 0's small L1 (same-set lines)
        span = cfg.l1d.sets * cfg.line_size
        for i in range(1, cfg.l1d.ways + 2):
            driver.load(0, i * span)
        out = driver.load(1, 0x0)
        assert out.version == 1  # dirty data survived the writeback path

    def test_ifetch_of_stored_line(self):
        self.driver.store(0, 0x2000)
        out = self.driver.ifetch(0, 0x2000)
        assert out.version == 1


class TestBase3L:
    def test_l2_hit_after_l1_eviction(self):
        cfg = base_3l(2)
        driver = TraceDriver(build_hierarchy(cfg))
        driver.load(0, 0x0)
        span = cfg.l1d.sets * cfg.line_size
        for i in range(1, cfg.l1d.ways + 1):
            driver.load(0, i * span)
        assert driver.load(0, 0x0).level is HitLevel.L2

    def test_l2_keeps_dirty_data(self):
        cfg = base_3l(2)
        driver = TraceDriver(build_hierarchy(cfg))
        driver.store(0, 0x0)
        span = cfg.l1d.sets * cfg.line_size
        for i in range(1, cfg.l1d.ways + 1):
            driver.load(0, i * span)
        out = driver.load(0, 0x0)
        assert out.level is HitLevel.L2
        assert out.version == 1


class TestRandomizedCoherence:
    @pytest.mark.parametrize("factory", [base_2l, base_3l])
    def test_sequential_value_correctness(self, factory):
        driver = TraceDriver(build_hierarchy(factory(4)), seed=11)
        driver.random_burst(20_000, cores=4)  # oracle-checked inside

    @pytest.mark.parametrize("factory", [base_2l, base_3l])
    def test_small_config_stress(self, factory):
        driver = TraceDriver(build_hierarchy(small_config(factory(4))),
                             seed=13)
        driver.random_burst(20_000, cores=4)


class TestConstruction:
    def test_rejects_d2m_config(self):
        with pytest.raises(InvariantViolation):
            BaselineHierarchy(d2m_fs())

    def test_llc_inclusive_of_l1(self):
        driver = TraceDriver(build_hierarchy(base_2l(2)))
        driver.load(0, 0x3000)
        h = driver.hierarchy
        line = h.amap.line_of(driver.space.translate(0x3000))
        assert h.llc.contains(line)
        assert h.directory.peek(line) is not None
