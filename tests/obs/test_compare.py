"""Tests for the differential layer: payload diffing and severities."""

import json

import pytest

from repro.experiments.records import RunRecord
from repro.obs.compare import (
    NOTE,
    OK,
    REGRESSION,
    REGRESSION_EXIT,
    WARN,
    CompareError,
    ComparisonReport,
    Delta,
    Thresholds,
    compare_hist_digests,
    compare_matrices,
    compare_payloads,
    compare_records,
    kind_of,
    load_payload,
    matrix_to_json,
    thresholds_from_percent,
)


def make_record(**overrides):
    record = RunRecord("water", "sa", "D2M-NS-R", 1000, cycles=10_000.0,
                       msgs_per_ki=50.0, edp=3.0e8,
                       events={"A": 100.0, "D1": 40.0},
                       hists={"latency.L1": {"count": 900.0, "mean": 2.0,
                                             "max": 7.0, "p50": 1.0,
                                             "p90": 3.0, "p99": 7.0}})
    for name, value in overrides.items():
        setattr(record, name, value)
    return record


class TestDelta:
    def test_rel_delta(self):
        assert Delta("x", 100.0, 110.0).rel_delta == pytest.approx(0.10)
        assert Delta("x", 0.0, 0.0).rel_delta == 0.0
        assert Delta("x", 0.0, 5.0).rel_delta is None
        assert Delta("x", None, 5.0).rel_delta is None

    def test_json_round_trip_shape(self):
        payload = Delta("x", 1.0, 2.0, WARN, "why").to_json()
        assert payload == {"key": "x", "baseline": 1.0, "candidate": 2.0,
                           "severity": WARN, "note": "why"}


class TestComparisonReport:
    def test_exit_code_gates_only_on_regression(self):
        report = ComparisonReport("record")
        report.add(Delta("a", 1.0, 1.0, OK))
        report.add(Delta("b", 1.0, 2.0, WARN))
        assert report.exit_code() == 0
        report.add(Delta("c", 1.0, 0.5, REGRESSION))
        assert report.exit_code() == REGRESSION_EXIT
        assert report.worst == REGRESSION
        assert len(report.regressions()) == 1

    def test_summary_line_verdicts(self):
        clean = ComparisonReport("record", "old", "new")
        clean.add(Delta("a", 1.0, 1.0, OK))
        assert "OK" in clean.summary_line()
        assert "old -> new" in clean.summary_line()
        broken = ComparisonReport("record")
        broken.add(Delta("a", 1.0, 9.0, REGRESSION))
        assert "REGRESSION" in broken.summary_line()


class TestCompareRecords:
    def test_identical_records_are_clean(self):
        report = compare_records(make_record(), make_record())
        assert report.worst == OK
        assert report.exit_code() == 0

    def test_scalar_drift_classification(self):
        report = compare_records(make_record(),
                                 make_record(cycles=13_000.0,  # +30%
                                             msgs_per_ki=53.0))  # +6%
        by_key = {d.key: d for d in report.deltas}
        assert by_key["cycles"].severity == REGRESSION
        assert by_key["msgs_per_ki"].severity == WARN
        assert by_key["edp"].severity == OK

    def test_informational_caps_at_note(self):
        report = compare_records(make_record(),
                                 make_record(cycles=99_000.0),
                                 informational=True)
        assert report.worst == NOTE
        assert report.exit_code() == 0

    def test_event_counters_cap_at_warn(self):
        report = compare_records(make_record(),
                                 make_record(events={"A": 900.0,
                                                     "D1": 40.0}))
        delta = next(d for d in report.deltas if d.key == "events.A")
        assert delta.severity == WARN

    def test_cell_and_budget_mismatch_are_noted(self):
        other = make_record()
        other.workload, other.instructions = "tpcc", 9999
        report = compare_records(make_record(), other)
        assert any("different cells" in note for note in report.notes)
        assert any("budgets differ" in note for note in report.notes)

    def test_accepts_run_record_objects_and_dicts(self):
        as_dict = make_record().to_json()
        report = compare_records(make_record(), as_dict)
        assert report.worst == OK
        with pytest.raises(CompareError):
            compare_records(make_record(), 42)


class TestCompareHistDigests:
    BASE = {"latency.L1": {"count": 100.0, "mean": 2.0, "max": 7.0,
                           "p50": 1.0, "p90": 3.0, "p99": 7.0}}

    def test_equal_digests_no_deltas(self):
        assert compare_hist_digests(self.BASE, self.BASE) == []

    def test_multi_bucket_drift_regresses(self):
        cand = {"latency.L1": dict(self.BASE["latency.L1"], p99=63.0)}
        deltas = compare_hist_digests(self.BASE, cand)
        p99 = next(d for d in deltas if d.key.endswith(".p99"))
        assert p99.severity == REGRESSION
        assert "buckets" in p99.note

    def test_one_bucket_drift_is_quiet(self):
        cand = {"latency.L1": dict(self.BASE["latency.L1"], p90=5.0)}
        deltas = compare_hist_digests(self.BASE, cand)
        p90 = next(d for d in deltas if d.key.endswith(".p90"))
        assert p90.severity == OK  # ~1.67x < the 1.5+1 warn ratio

    def test_collapse_to_zero_warns(self):
        cand = {"latency.L1": dict(self.BASE["latency.L1"], p50=0.0)}
        deltas = compare_hist_digests(self.BASE, cand)
        p50 = next(d for d in deltas if d.key.endswith(".p50"))
        assert p50.severity == WARN
        assert "zero" in p50.note

    def test_missing_histogram_warns(self):
        deltas = compare_hist_digests(self.BASE, {})
        assert deltas[0].severity == WARN
        assert "only in baseline" in deltas[0].note

    def test_cap_applies(self):
        cand = {"latency.L1": dict(self.BASE["latency.L1"], p99=63.0)}
        deltas = compare_hist_digests(self.BASE, cand, cap=NOTE)
        assert all(d.severity in (OK, NOTE) for d in deltas)


class TestCompareMatrices:
    def test_cell_sets_and_prefixes(self):
        base = {"water": {"Base-2L": make_record().to_json(),
                          "D2M-NS-R": make_record().to_json()}}
        cand = {"water": {"Base-2L": make_record().to_json()}}
        report = compare_matrices(base, cand)
        missing = next(d for d in report.deltas
                       if d.key == "water/D2M-NS-R")
        assert missing.severity == WARN
        assert any(d.key.startswith("water/Base-2L:cycles")
                   for d in report.deltas)

    def test_matrix_to_json_feeds_compare(self):
        matrix = {"water": {"Base-2L": make_record()}}
        payload = matrix_to_json(matrix)
        report = compare_matrices(payload, payload)
        assert report.worst == OK


class TestKindsAndLoading:
    def test_kind_of(self):
        assert kind_of(make_record().to_json()) == "record"
        assert kind_of({"water": {"Base-2L": make_record().to_json()}}) \
            == "matrix"
        with pytest.raises(CompareError):
            kind_of({"unrelated": 1})
        with pytest.raises(CompareError):  # a BENCH_*.json report
            kind_of({"cells": [], "geomean_ips": 1.0, "mode": "full"})
        with pytest.raises(CompareError):
            kind_of([1, 2])

    def test_compare_payloads_dispatch_and_mismatch(self):
        record = make_record().to_json()
        matrix = {"water": {"D2M-NS-R": record}}
        assert compare_payloads(record, record).kind == "record"
        assert compare_payloads(matrix, matrix).kind == "matrix"
        with pytest.raises(CompareError):
            compare_payloads(matrix, record)

    def test_load_payload_file_and_errors(self, tmp_path):
        path = tmp_path / "record.json"
        path.write_text(json.dumps(make_record().to_json()))
        assert kind_of(load_payload(path)) == "record"
        with pytest.raises(CompareError):
            load_payload(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(CompareError):
            load_payload(bad)

    def test_load_payload_directory_builds_matrix(self, tmp_path):
        for config in ("Base-2L", "D2M-NS-R"):
            record = make_record()
            record.config = config
            (tmp_path / f"{config}.json").write_text(
                json.dumps(record.to_json()))
        (tmp_path / "torn.json").write_text("{")
        matrix = load_payload(tmp_path)
        assert kind_of(matrix) == "matrix"
        assert set(matrix["water"]) == {"Base-2L", "D2M-NS-R"}
        with pytest.raises(CompareError):
            load_payload(tmp_path / "sub")  # missing dir


class TestThresholds:
    def test_from_percent(self):
        thresholds = thresholds_from_percent(metric_fail_pct=40.0)
        assert thresholds.metric_fail == pytest.approx(0.40)
        assert thresholds.metric_warn == pytest.approx(0.10)

    def test_abs_floor_silences_noise(self):
        tight = Thresholds(abs_floor=1.0)
        base = make_record()
        cand = make_record(msgs_per_ki=50.5)  # +1% but below the floor
        report = compare_records(base, cand, thresholds=tight)
        delta = next(d for d in report.deltas if d.key == "msgs_per_ki")
        assert delta.severity == OK
