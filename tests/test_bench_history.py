"""Longitudinal bench trends (tools/bench_history) and its lint kin."""

import json

from tests.serve.test_schema import record_payload
from tools.bench_history import history_rows, history_table, main
from tools.lint_repro import check_schema, check_tracked_bytecode


def bench_report(geomean, mode="quick", date="2026-08-01", **overrides):
    report = {
        "schema": 1, "date": date, "mode": mode,
        "matrix": {"configs": ["Base-2L"], "workloads": ["tpcc"],
                   "seed": 1, "instructions": 20_000, "warmup": 10_000,
                   "repetitions": 3},
        "env": {}, "cells": [{"config": "Base-2L", "workload": "tpcc",
                              "ips": geomean}],
        "geomean_ips": geomean,
        "equivalence_checked": True, "equivalence_ok": True,
    }
    report.update(overrides)
    return report


def write_reports(tmp_path, *reports):
    paths = []
    for index, report in enumerate(reports):
        path = tmp_path / f"BENCH_2026-08-0{index + 1}.json"
        path.write_text(json.dumps(report))
        paths.append(path)
    return paths


class TestHistoryRows:
    def test_deltas_chain_between_comparable_reports(self, tmp_path):
        paths = write_reports(tmp_path,
                              bench_report(100.0),
                              bench_report(110.0, date="2026-08-02"),
                              bench_report(99.0, date="2026-08-03"))
        rows = history_rows(paths)
        assert rows[0]["delta"] is None  # first of its kind
        assert abs(rows[1]["delta"] - 0.10) < 1e-9
        assert abs(rows[2]["delta"] - (99.0 / 110.0 - 1.0)) < 1e-9

    def test_mode_or_matrix_change_breaks_the_chain(self, tmp_path):
        full = bench_report(200.0, mode="full", date="2026-08-02")
        paths = write_reports(tmp_path, bench_report(100.0), full)
        rows = history_rows(paths)
        # a full report never compares against a quick one
        assert rows[1]["delta"] is None

    def test_foreign_and_torn_json_skipped(self, tmp_path):
        good = tmp_path / "BENCH_2026-08-01.json"
        good.write_text(json.dumps(bench_report(100.0)))
        (tmp_path / "BENCH_torn.json").write_text("{not json")
        (tmp_path / "BENCH_other.json").write_text('{"schema": 1}')
        rows = history_rows(sorted(tmp_path.glob("BENCH_*.json")))
        assert len(rows) == 1

    def test_unchecked_equivalence_is_none(self, tmp_path):
        report = bench_report(100.0, equivalence_checked=False)
        paths = write_reports(tmp_path, report)
        assert history_rows(paths)[0]["equivalence"] is None


class TestHistoryTable:
    def test_renders_every_row(self, tmp_path):
        paths = write_reports(tmp_path, bench_report(100.0),
                              bench_report(150.0, date="2026-08-02"))
        table = history_table(history_rows(paths))
        assert "geomean ips" in table
        assert "+50.0%" in table
        assert table.count("BENCH_") == 2

    def test_empty_history_says_so(self):
        assert "no BENCH_" in history_table([])


class TestMain:
    def test_table_and_json_outputs(self, tmp_path, capsys):
        write_reports(tmp_path, bench_report(100.0))
        assert main(["--root", str(tmp_path)]) == 0
        assert "BENCH_2026-08-01.json" in capsys.readouterr().out
        assert main(["--root", str(tmp_path), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["geomean_ips"] == 100.0

    def test_default_root_is_the_working_directory(self, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_reports(tmp_path, bench_report(100.0))
        assert main([]) == 0
        assert "BENCH_2026-08-01.json" in capsys.readouterr().out


class TestTimelineSchemaLint:
    def test_records_and_bare_timelines_both_validate(self, tmp_path):
        (tmp_path / "record.json").write_text(json.dumps(
            record_payload(timeline={"epochs": 0})))
        (tmp_path / "bare.json").write_text(json.dumps({"epochs": 0}))
        assert check_schema([tmp_path]) == []

    def test_malformed_series_fail(self, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps(
            record_payload(timeline={"epochs": "3"})))
        problems = check_schema([tmp_path])
        assert any("not an int" in p for p in problems)

    def test_empty_match_is_a_problem(self, tmp_path):
        assert check_schema([tmp_path / "absent"])


class TestTrackedBytecode:
    def test_repo_tracks_no_bytecode(self):
        # vacuous outside a git checkout; a hard failure inside one
        assert check_tracked_bytecode() == []
