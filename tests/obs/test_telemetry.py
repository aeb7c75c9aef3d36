"""Tests for histogram telemetry: wiring, non-perturbation, dwell logic."""

import pytest

from repro.common.params import base_2l, d2m_ns_r
from repro.common.types import HitLevel
from repro.obs.telemetry import Telemetry
from repro.sim.runner import run_workload


class TestTelemetryRun:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run_workload(d2m_ns_r(), "tpcc", instructions=2500, seed=1,
                            telemetry=True)

    def test_latency_histograms_populated(self, outcome):
        hists = outcome.hist_summaries()
        assert f"latency.{HitLevel.L1.value}" in hists
        # recorded latency counts sum to the ROI access count
        latency_total = sum(d["count"] for name, d in hists.items()
                            if name.startswith("latency."))
        assert latency_total == outcome.result.accesses

    def test_expected_histogram_families(self, outcome):
        hists = outcome.hist_summaries()
        assert "mshr.residency" in hists
        assert "noc.hops" in hists
        assert "md1.occupancy" in hists
        assert "md2.occupancy" in hists
        assert any(name.startswith("dwell.") for name in hists)

    def test_occupancy_is_percentage(self, outcome):
        hists = outcome.hist_summaries()
        assert 0 <= hists["md1.occupancy"]["max"] <= 100

    def test_spec_records_telemetry_provenance(self, outcome):
        assert outcome.spec.telemetry is True
        assert outcome.telemetry is not None

    def test_statistics_are_unperturbed(self):
        plain = run_workload(d2m_ns_r(), "tpcc", instructions=2500, seed=1,
                             telemetry=False)
        metered = run_workload(d2m_ns_r(), "tpcc", instructions=2500, seed=1,
                               telemetry=True)
        assert plain.result.accesses == metered.result.accesses
        assert plain.perf.cycles == metered.perf.cycles
        assert (plain.hierarchy.stats.counters()
                == metered.hierarchy.stats.counters())

    def test_baseline_gets_noc_but_no_protocol_hists(self):
        outcome = run_workload(base_2l(), "tpcc", instructions=2500, seed=1,
                               telemetry=True)
        hists = outcome.hist_summaries()
        assert "noc.hops" in hists
        assert "md1.occupancy" not in hists
        assert not any(name.startswith("dwell.") for name in hists)

    def test_off_by_default(self):
        outcome = run_workload(d2m_ns_r(), "tpcc", instructions=1500, seed=1)
        assert outcome.telemetry is None
        assert outcome.hist_summaries() == {}


class TestDwellMirror:
    def test_pb_events_drive_dwell_classes(self):
        tele = Telemetry()
        tele.accesses = 0
        tele.emit("md3.fill", region=7)          # untracked from access 0
        tele.accesses = 10
        tele.emit("md3.pb_add", region=7)        # private from access 10
        tele.accesses = 30
        tele.emit("md3.pb_add", region=7)        # shared from access 30
        tele.accesses = 70
        tele.emit("md3.drop", region=7)          # closes the shared dwell
        summaries = tele.hists.summaries()
        assert summaries["dwell.untracked"]["count"] == 1
        assert summaries["dwell.private"]["count"] == 1
        assert summaries["dwell.shared"]["count"] == 1
        assert summaries["dwell.shared"]["max"] == 40  # accesses 30..70

    def test_pb_clear_back_to_private_then_finalize_flushes(self):
        tele = Telemetry()
        tele.emit("md3.pb_add", region=1)
        tele.emit("md3.pb_add", region=1)
        tele.accesses = 50
        tele.emit("md3.pb_clear", region=1)      # shared -> private
        tele.accesses = 80
        tele.finalize()                          # flushes the open dwell
        summaries = tele.hists.summaries()
        assert summaries["dwell.shared"]["count"] == 1
        assert summaries["dwell.private"]["count"] == 1

    def test_events_without_region_are_ignored(self):
        tele = Telemetry()
        tele.emit("md3.pb_add")
        tele.emit("noc.msg", region=3)
        tele.finalize()
        assert tele.hists.summaries() == {}

