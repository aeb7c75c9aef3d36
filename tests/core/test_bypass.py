"""Tests for the cache-bypassing optimization (paper §I)."""

from dataclasses import replace

from tests.helpers import TraceDriver
from repro.common.params import d2m_fs
from repro.core.hierarchy import build_hierarchy
from repro.core.invariants import check_invariants


def bypass_config(min_installs=8, threshold=0.5):
    cfg = d2m_fs(2)
    return replace(cfg, policy=replace(
        cfg.policy, bypass_low_reuse=True,
        bypass_min_installs=min_installs,
        bypass_reuse_threshold=threshold,
    ))


def stream_region(driver, base, lines=16, laps=1):
    for _lap in range(laps):
        for i in range(lines):
            driver.load(0, base + i * 64)


class TestBypassDecision:
    def test_streaming_region_gets_bypassed(self):
        driver = TraceDriver(build_hierarchy(bypass_config()))
        stream_region(driver, 0x1000, laps=2)
        assert driver.hierarchy.stats.get("bypass.reads") > 0

    def test_reused_region_not_bypassed(self):
        driver = TraceDriver(build_hierarchy(bypass_config()))
        for _ in range(20):
            for i in range(4):  # tight reuse: every line re-hits the L1
                driver.load(0, 0x1000 + i * 64)
        assert driver.hierarchy.stats.get("bypass.reads") == 0

    def test_disabled_by_default(self):
        driver = TraceDriver(build_hierarchy(d2m_fs(2)))
        stream_region(driver, 0x1000, laps=4)
        assert driver.hierarchy.stats.get("bypass.reads") == 0


class TestBypassCorrectness:
    def test_bypassed_reads_return_correct_values(self):
        driver = TraceDriver(build_hierarchy(bypass_config(min_installs=4)))
        # writes establish versions, streaming reads bypass afterwards —
        # the TraceDriver oracle validates every returned version
        for i in range(16):
            driver.store(0, 0x1000 + i * 64)
        # evict nothing; stream another region to trigger bypass there
        stream_region(driver, 0x2000, laps=3)
        for i in range(16):
            out = driver.load(0, 0x1000 + i * 64)
            assert out.version == 1

    def test_bypassed_lines_left_out_of_the_l1(self):
        driver = TraceDriver(build_hierarchy(bypass_config(min_installs=4)))
        stream_region(driver, 0x2000, laps=2)
        assert driver.hierarchy.stats.get("bypass.reads") > 0
        region = driver.hierarchy.amap.region_of(
            driver.space.translate(0x2000))
        node = driver.hierarchy.nodes[0]
        # bypassing kept part of the streamed region out of the L1-D
        assert node.l1d.region_line_count(region) < 16

    def test_invariants_hold_with_bypass(self):
        driver = TraceDriver(build_hierarchy(bypass_config(min_installs=4)),
                             seed=51)
        driver.random_burst(6000, cores=2)
        check_invariants(driver.hierarchy.protocol)

    def test_reuse_counters_survive_md1_spill(self):
        driver = TraceDriver(build_hierarchy(bypass_config()))
        stream_region(driver, 0x1000, laps=1)
        config = driver.hierarchy.config
        region = driver.hierarchy.amap.region_of(
            driver.space.translate(0x1000))
        installs = driver.hierarchy.nodes[0].active_holder(region).installs
        # push the region's MD1 entry out (MD1 is small)
        for i in range(config.md1.regions + 8):
            driver.load(0, 0x100_0000 + i * config.region_size)
        holder = driver.hierarchy.nodes[0].active_holder(region)
        assert holder.installs == installs
