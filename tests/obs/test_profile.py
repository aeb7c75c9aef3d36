"""Slow-tail attribution: synthetic unit tests plus a real profiled run."""

import pytest

from repro.common.params import base_2l, d2m_ns_r
from repro.core.hierarchy import build_hierarchy
from repro.obs.profile import (
    PROFILE_KEYS,
    UNCLASSIFIED,
    AttributionProfiler,
    profile_ranking,
    profile_text,
    validate_profile,
)


def bound(config=None):
    """A profiler bound to a fresh hierarchy (D2M-NS-R by default)."""
    hierarchy = build_hierarchy(config or d2m_ns_r(2))
    profiler = AttributionProfiler()
    profiler.bind(hierarchy, None)
    return profiler, hierarchy


def synthetic_profile():
    return {
        "driver": "batched", "wall_s": 2.0, "fast_s": 1.5, "slow_s": 0.5,
        "chunks": 4, "slow_accesses": 10,
        "classes": {"d2m.D1": {"s": 0.3, "n": 6},
                    "d2m.B": {"s": 0.2, "n": 4}},
        "hists": {},
    }


class TestAttribution:
    def test_emit_resolves_through_the_spec_index(self):
        profiler, _ = bound()
        profiler.slow_start()
        profiler.emit("md3.classify", detail="D1")
        profiler.slow_done(1000)
        assert profiler.class_ns == {"d2m.D1": 1000.0}
        assert profiler.class_n == {"d2m.D1": 1}

    def test_multi_class_access_splits_time_equally(self):
        profiler, _ = bound()
        profiler.slow_start()
        profiler.emit("md3.classify", detail="D1")
        profiler.emit("mem.writeback")
        profiler.slow_done(1000)
        assert profiler.class_ns == {"d2m.D1": 500.0, "d2m.wb": 500.0}
        # each class still counts the access once
        assert profiler.class_n == {"d2m.D1": 1, "d2m.wb": 1}

    def test_unmatched_access_lands_in_unclassified(self):
        profiler, _ = bound()
        profiler.slow_start()
        profiler.emit("no.such.kind", detail="x")
        profiler.slow_done(700)
        assert profiler.class_ns == {UNCLASSIFIED: 700.0}

    def test_stat_diffs_attribute_the_abc_taxonomy(self):
        profiler, hierarchy = bound()
        profiler.slow_start()
        hierarchy.events.add("B", 1)
        profiler.slow_done(400)
        assert profiler.class_ns == {"d2m.B": 400.0}
        # a counter that does not move between start and done is silent
        profiler.slow_start()
        profiler.slow_done(100)
        assert profiler.class_ns["d2m.B"] == 400.0
        assert profiler.class_ns[UNCLASSIFIED] == 100.0

    def test_root_counter_with_a_group_named_like_its_prefix(self):
        # md3.global_evictions is a root counter although an "md3" group
        # exists; md3.fills (a group counter) names no transition
        profiler, hierarchy = bound()
        profiler.slow_start()
        hierarchy.stats.add("md3.global_evictions")
        hierarchy.md3.stats.add("fills")
        profiler.slow_done(300)
        assert profiler.class_ns == {"d2m.global_evict": 300.0}

    def test_mesi_counter_bump_files_the_rows_sharing_its_signature(self):
        profiler, hierarchy = bound(base_2l(2))
        profiler.slow_start()
        hierarchy.stats.add("reads.llc")
        profiler.slow_done(1000)
        assert profiler.class_ns == {"mesi.load.miss_llc_shared": 500.0,
                                     "mesi.load.miss_llc_excl": 500.0}
        assert profiler.class_n == {"mesi.load.miss_llc_shared": 1,
                                    "mesi.load.miss_llc_excl": 1}

    def test_chunk_split_fast_vs_slow(self):
        profiler, _ = bound()
        profiler.slow_start()
        profiler.slow_done(300)
        profiler.chunk_done(1000)
        profiler.chunk_done(500)  # no slow accesses this chunk
        assert profiler.slow_ns == 300
        assert profiler.fast_ns == 700 + 500
        assert profiler.chunks == 2
        # a chunk timed shorter than its own slow tail never goes negative
        profiler.slow_start()
        profiler.slow_done(900)
        profiler.chunk_done(600)
        assert profiler.fast_ns == 1200


class TestSummary:
    def test_summary_matches_schema_and_conserves_time(self):
        profiler, _ = bound()
        profiler.slow_start()
        profiler.emit("md3.classify", detail="D2")
        profiler.slow_done(1_000_000)
        profiler.chunk_done(3_000_000)
        digest = profiler.summary()
        assert validate_profile(digest) == []
        assert tuple(digest) == PROFILE_KEYS
        assert digest["driver"] == "batched"
        assert digest["wall_s"] == pytest.approx(0.003)
        assert digest["slow_s"] == pytest.approx(0.001)
        assert digest["fast_s"] == pytest.approx(0.002)
        class_seconds = sum(entry["s"]
                            for entry in digest["classes"].values())
        assert class_seconds == pytest.approx(digest["slow_s"])
        assert digest["hists"]["chunk_ns"]["count"] == 1.0
        assert digest["hists"]["slow_access_ns"]["count"] == 1.0


class TestRankingAndText:
    def test_ranking_sorts_by_seconds_then_tid(self):
        profile = synthetic_profile()
        profile["classes"]["d2m.A.llc"] = {"s": 0.2, "n": 1}
        rows = profile_ranking(profile)
        assert rows[0] == ("d2m.D1", 0.3, 6)
        assert [tid for tid, _, _ in rows[1:]] == ["d2m.A.llc", "d2m.B"]

    def test_ranking_tolerates_malformed_digests(self):
        assert profile_ranking({}) == []
        assert profile_ranking({"classes": "nope"}) == []
        assert profile_ranking({"classes": {"x": 3}}) == []

    def test_text_renders_header_and_rows(self):
        text = profile_text(synthetic_profile())
        assert "slow-tail attribution" in text
        assert "10 fallback accesses" in text
        lines = text.splitlines()
        assert "d2m.D1" in lines[1]  # most expensive first
        assert profile_text({}).startswith("no attribution profile")


class TestValidateProfile:
    def test_empty_digest_is_the_unprofiled_contract(self):
        assert validate_profile({}) == []

    def test_non_mapping_and_key_errors(self):
        assert validate_profile("x")
        missing = synthetic_profile()
        del missing["chunks"]
        missing["extra"] = 1
        problems = validate_profile(missing)
        assert any("missing" in p for p in problems)
        assert any("unknown" in p for p in problems)

    def test_negative_times_and_malformed_classes(self):
        bad = synthetic_profile()
        bad["slow_s"] = -1
        bad["classes"]["d2m.D1"] = {"s": "fast", "n": 1}
        problems = validate_profile(bad)
        assert any("slow_s" in p for p in problems)
        assert any("d2m.D1" in p for p in problems)


class TestRealRun:
    def test_profiled_run_produces_a_valid_nonempty_digest(self):
        from repro.sim.runner import run_workload

        outcome = run_workload(d2m_ns_r(8), "water", instructions=3000,
                               warmup=200, seed=3, profile=True)
        digest = outcome.profile_summary()
        assert validate_profile(digest) == []
        assert digest["slow_accesses"] > 0
        ranked = profile_ranking(digest)
        assert ranked, "a D2M run must exercise at least one class"
        # the ranking names real spec transition ids
        assert any(tid.startswith("d2m.") for tid, _, _ in ranked)

    @pytest.mark.parametrize("config, limit", [(base_2l(), 0.0),
                                               (d2m_ns_r(), 0.01)],
                             ids=["Base-2L", "D2M-NS-R"])
    def test_every_slow_access_gets_a_spec_class(self, config, limit):
        from repro.sim.runner import run_workload

        digest = run_workload(config, "tpcc", 4000,
                              profile=True).profile_summary()
        family = "mesi." if config.name.startswith("Base") else "d2m."
        assert any(tid.startswith(family) for tid in digest["classes"])
        unclassified = digest["classes"].get(UNCLASSIFIED, {"n": 0})["n"]
        assert unclassified <= limit * digest["slow_accesses"], \
            (unclassified, digest["slow_accesses"])

    def test_profiled_run_keeps_statistics_bit_identical(self):
        from repro.sim.runner import run_workload

        plain = run_workload(d2m_ns_r(8), "water", instructions=2000,
                             warmup=200, seed=3, batched=True)
        profiled = run_workload(d2m_ns_r(8), "water", instructions=2000,
                                warmup=200, seed=3, profile=True)
        assert plain.result.stats.flatten() == profiled.result.stats.flatten()
        assert plain.profile_summary() == {}  # off by default
