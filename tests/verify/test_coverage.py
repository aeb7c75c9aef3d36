"""Transition coverage: signature matching, directed probes, the gate."""

import pytest

from repro.common.params import all_configs
from repro.common.stats import StatGroup
from repro.sim.bench import BENCH_CONFIGS, BENCH_WORKLOADS
from repro.verify.coverage import (
    PROBES,
    CoverageReport,
    RunSignals,
    TransitionCoverage,
    coverage_from_signals,
    directed_signals,
    fired_stats,
    run_coverage,
)
from repro.verify.spec import (
    D2M_SPEC,
    MESI_SPEC,
    SPECS,
    ProtocolSpec,
    Transition,
    spec_for,
)


def one_row_spec(*signatures):
    """A spec whose single transition ``t`` carries ``signatures``."""
    row = Transition(tid="t", state="s", event="e", guard="g", actions=(),
                     next_state="n", evidence=(), coverage=signatures)
    return ProtocolSpec(name="x", description="", transitions=(row,))


class TestSignatureMatching:
    """``SignalTable.classify``: the one rule coverage and the slow-tail
    profiler match signals by."""

    def test_stat_key_matches_exactly(self):
        table = one_row_spec("stat:events.C").table
        assert table.classify(["events.C"], ()) == {"t": "stat:events.C"}
        assert table.classify(["events.B"], ()) == {}
        # keys are relative to the root group: no suffix rule
        assert table.classify(["D2M-FS.events.C"], ()) == {}

    def test_stat_key_is_not_a_substring_match(self):
        table = one_row_spec("stat:events.C").table
        assert table.classify(["xevents.C"], ()) == {}

    def test_emit_kind_and_detail_prefix(self):
        emits = [("llc.fill", "master bypass")]
        assert one_row_spec("emit:llc.fill").table.classify((), emits)
        assert one_row_spec("emit:llc.fill:master").table.classify((), emits)
        assert not one_row_spec("emit:llc.fill:replica").table.classify(
            (), emits)
        assert not one_row_spec("emit:llc.evict").table.classify((), emits)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            one_row_spec("trace:whatever").table

    def test_rows_sharing_a_signature_all_fire(self):
        fired = MESI_SPEC.table.classify(["reads.llc"], ())
        assert set(fired) == {"mesi.load.miss_llc_shared",
                              "mesi.load.miss_llc_excl"}

    def test_spec_for_picks_the_family(self):
        families = {c.name: spec_for(c).name for c in all_configs()}
        assert families == {"Base-2L": "mesi", "Base-3L": "mesi",
                            "D2M-FS": "d2m", "D2M-NS": "d2m",
                            "D2M-NS-R": "d2m"}

    def test_fired_stats_are_relative_and_drop_zeroes(self):
        root = StatGroup("Base-2L")
        root.add("reads.llc", 3.0)
        root.child("events").add("C", 1.0)
        root.child("events").set("B", 0.0)
        assert fired_stats(root) == {"reads.llc", "events.C"}

    def test_merge_unions_both_channels(self):
        a = RunSignals(label="a", spec=D2M_SPEC, stats={"s1"},
                       emits={("k", "d")})
        b = RunSignals(label="b", spec=D2M_SPEC, stats={"s2"})
        a.merge(b)
        assert a.stats == {"s1", "s2"}
        assert a.emits == {("k", "d")}

    def test_runs_match_only_their_own_family(self):
        # l1.d.hits and invalidations_received are signatures in both
        # specs; a MESI run must not credit the D2M rows.
        shared = {"l1.d.hits", "invalidations_received"}
        mesi = RunSignals(label="m", spec=MESI_SPEC, stats=shared)
        report = coverage_from_signals([mesi])
        by_tid = {t.tid: t for t in report.transitions}
        assert by_tid["mesi.load.hit"].exercised
        assert not by_tid["d2m.hit"].exercised
        assert not by_tid["d2m.C.inv"].exercised


class TestReportShape:
    @staticmethod
    def _cov(tid, exercised, cold=None):
        return TransitionCoverage(tid=tid, protocol="d2m",
                                  exercised=exercised, via="", cold=cold)

    def test_cold_annotation_gates_findings(self):
        report = CoverageReport(runs=["r"], transitions=[
            self._cov("d2m.a", True),
            self._cov("d2m.b", False, cold="needs 3 nodes"),
            self._cov("d2m.c", False),
        ])
        assert [t.tid for t in report.unexercised] == ["d2m.b", "d2m.c"]
        assert [t.tid for t in report.findings] == ["d2m.c"]
        assert not report.ok

    def test_to_json_summary(self):
        report = CoverageReport(runs=["r"], transitions=[
            self._cov("d2m.a", True),
            self._cov("d2m.b", False, cold="why"),
        ])
        doc = report.to_json()
        assert doc["summary"] == {"total": 2, "exercised": 1, "cold": 1,
                                  "findings": [], "ok": True}
        assert doc["runs"] == ["r"]
        assert all(set(t) == {"tid", "protocol", "exercised", "via",
                              "cold", "ok"}
                   for t in doc["transitions"])

    def test_coverage_from_signals_covers_every_spec_transition(self):
        report = coverage_from_signals([RunSignals(label="empty",
                                                   spec=D2M_SPEC)])
        expected = sum(len(s.transitions) for s in SPECS.values())
        assert len(report.transitions) == expected


class TestDirectedProbes:
    """The hand-built probe traces hit the rare-event transitions that
    random matrix traffic cannot reach (full round-trip through real
    hierarchies with the tracer attached)."""

    @pytest.fixture(scope="class")
    def signals(self):
        return {s.label: s for s in directed_signals()}

    def test_d2m_probe_hits_rare_events(self, signals):
        d2m = signals["directed:d2m"]
        for key in ("events.D1", "md2.prunes", "evictions.llc_shared",
                    "md.md1_cross_hits"):
            assert key in d2m.stats, (key, sorted(d2m.stats))

    def test_nsr_probe_hits_replication_path(self, signals):
        nsr = signals["directed:ns-r"]
        assert {"d2m.read.replicate", "d2m.F"} <= set(nsr.exercised())

    def test_traced_runs_capture_emits(self, signals):
        assert signals["directed:d2m"].emits
        assert signals["directed:ns-r"].emits

    def test_directed_runs_alone_cover_rare_transitions(self, signals):
        report = coverage_from_signals(list(signals.values()))
        rare = [t for t in D2M_SPEC.transitions
                if any(sig.startswith(("stat:events.D1",
                                       "stat:ns.replications"))
                       for sig in t.coverage)]
        assert rare, "spec lost its rare-event transitions"
        by_tid = {t.tid: t for t in report.transitions}
        for transition in rare:
            assert by_tid[transition.tid].exercised, transition.tid


@pytest.mark.slow
class TestAcceptanceGate:
    @pytest.fixture(scope="class")
    def report(self):
        return run_coverage()

    def test_full_pass_exercises_every_transition(self, report):
        assert report.findings == [], [t.tid for t in report.findings]
        summary = report.to_json()["summary"]
        assert summary["exercised"] == summary["total"]

    def test_batched_driver_matches_every_matrix_run_and_probe(self,
                                                                report):
        assert len(report.compared) == (
            len(BENCH_CONFIGS) * len(BENCH_WORKLOADS) + len(PROBES))
        assert report.divergent == []

    def test_every_via_names_a_run_of_its_own_protocol(self, report):
        families = {c.name: spec_for(c).name for c in all_configs()}
        families.update({"directed:mesi": "mesi", "directed:d2m": "d2m",
                         "directed:ns-r": "d2m", "directed:bypass": "d2m"})
        for t in report.transitions:
            label = t.via.split(" [")[0]
            config = label.split("/")[0].removeprefix("probe:")
            assert families.get(label, families.get(config)) == t.protocol, \
                (t.tid, t.via)
