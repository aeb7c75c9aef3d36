"""Tests for the command-line interface."""

import json
import sys

import pytest

from repro.cli import ARTIFACTS, main
from repro.experiments.records import RunRecord


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """``repro run`` writes run records: keep them out of the cwd."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _record_files(tmp_path):
    return sorted((tmp_path / "cache" / "runs").glob("*.json"))


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "D2M-NS-R" in out
        assert "tpcc" in out
        assert "fig7" in out

    def test_closed_pipe_exits_one_without_a_traceback(self, tmp_path,
                                                       monkeypatch):
        # ``repro list | head -0``: the reader is gone before the write
        target = (tmp_path / "stdout").open("w")

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return target.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            assert main(["list"]) == 1
        finally:
            target.close()


class TestRun:
    def test_runs_and_prints_summary(self, capsys):
        assert main(["run", "--config", "base-2l", "--workload", "water",
                     "--instructions", "1500"]) == 0
        out = capsys.readouterr().out
        assert "water on Base-2L" in out
        assert "L1-D miss ratio" in out

    def test_d2m_summary_has_extra_rows(self, capsys):
        assert main(["run", "--config", "d2m-ns-r", "--workload", "water",
                     "--instructions", "1500"]) == 0
        out = capsys.readouterr().out
        assert "private misses" in out
        assert "NS hits" in out

    def test_profile_attrib_prints_the_ranking(self, capsys):
        assert main(["run", "--config", "d2m-ns-r", "--workload", "water",
                     "--instructions", "1500",
                     "--view", "summary,profile"]) == 0
        out = capsys.readouterr().out
        assert out.index("water on D2M-NS-R") < \
            out.index("slow-tail attribution")
        assert "fallback accesses" in out

    def test_unknown_config_rejected(self, capsys):
        assert main(["run", "--config", "nope", "--workload", "water"]) == 2

    def test_unknown_workload_rejected(self):
        assert main(["run", "--config", "base-2l",
                     "--workload", "nope"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["--view", "summary,nope"], "unknown view"),
        (["--view", " , "], "unknown view"),
        (["--view", "trace,summary"], "cannot be combined"),
        (["--view", "summary", "--format", "json"], "renders text"),
        (["--view", "trace", "--format", "html"], "renders jsonl/chrome"),
        (["--job", "j1"], "--job shows"),
    ], ids=["unknown", "empty", "trace-combined", "summary-json",
            "trace-html", "job-summary"])
    def test_bad_view_requests_exit_two(self, argv, message, capsys):
        assert main(["run", "--workload", "water", *argv]) == 2
        assert message in capsys.readouterr().err


class TestCellLookup:
    """Every record view takes its cell from one ``plan_matrix`` lookup."""

    ARGV = ["run", "--config", "d2m-fs", "--workload", "water",
            "--instructions", "1200", "--view", "summary,timeline",
            "--epoch", "128"]

    def test_miss_simulates_once_then_serves_the_record(
            self, tmp_path, monkeypatch, capsys):
        import repro.experiments.runner as runner

        assert main(self.ARGV) == 0
        first = capsys.readouterr().out
        assert "epochs x 128 accesses" in first
        assert len(_record_files(tmp_path)) == 1

        def no_simulation(spec):
            raise AssertionError(f"simulated {spec.workload} again")

        monkeypatch.setattr(runner, "_simulate_record", no_simulation)
        assert main(self.ARGV) == 0
        assert capsys.readouterr().out == first
        assert len(_record_files(tmp_path)) == 1

    def test_check_simulates_afresh_with_the_oracle(self, tmp_path,
                                                    monkeypatch, capsys):
        import repro.experiments.runner as runner

        argv = ["run", "--config", "base-2l", "--workload", "water",
                "--instructions", "1200"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        checked = []
        simulate = runner._simulate_record

        def spy(spec):
            checked.append(spec.check_values)
            return simulate(spec)

        monkeypatch.setattr(runner, "_simulate_record", spy)
        assert main([*argv, "--check"]) == 0
        assert checked == [True]
        assert capsys.readouterr().out == plain

    def test_summary_renders_the_same_from_a_record_file(self, tmp_path,
                                                         capsys):
        argv = ["run", "--config", "d2m-ns-r", "--workload", "water",
                "--instructions", "1200"]
        assert main(argv) == 0
        live = capsys.readouterr().out
        (path,) = _record_files(tmp_path)
        assert main(["run", str(path)]) == 0
        assert capsys.readouterr().out == live

    def test_run_record_serves_the_next_sweep(self, tmp_path, capsys):
        """A plain ``repro run`` collects histogram digests like a sweep,
        so a sweep over the same cell simulates only the other four."""
        assert main(["run", "--config", "base-2l", "--workload", "water",
                     "--instructions", "1500"]) == 0
        assert main(["sweep", "--workloads", "water", "--instructions",
                     "1500", "--jobs", "1"]) == 0
        capsys.readouterr()
        progress = tmp_path / "cache" / "progress.jsonl"
        events = [json.loads(line)["event"]
                  for line in progress.read_text().splitlines()]
        assert events.count("run.done") == 5
        assert len(_record_files(tmp_path)) == 5

    def test_failed_run_prints_its_failure_and_exits_one(self, monkeypatch,
                                                         capsys):
        import repro.experiments.runner as runner

        def broken(spec):
            raise RuntimeError("boom")

        monkeypatch.setattr(runner, "_simulate_record", broken)
        assert main(["run", "--workload", "water",
                     "--instructions", "1200"]) == 1
        err = capsys.readouterr().err
        assert "water on D2M-NS-R (seed 1): RuntimeError: boom" in err


class TestReport:
    def test_structural_tables(self, capsys):
        assert main(["report", "tables"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_unknown_artifact(self):
        assert main(["report", "nope"]) == 2

    def test_every_artifact_is_mapped(self):
        import importlib
        for module_name in ARTIFACTS.values():
            module = importlib.import_module(
                f"repro.experiments.{module_name}")
            assert hasattr(module, "main")


class TestSweep:
    def test_sweep_small(self, tmp_path, monkeypatch, capsys):
        assert main(["sweep", "--workloads", "water",
                     "--instructions", "1200"]) == 0
        assert "matrix ready" in capsys.readouterr().out

    def test_sweep_rejects_typo(self, tmp_path, monkeypatch, capsys):
        assert main(["sweep", "--workloads", "watr"]) == 2
        assert "watr" in capsys.readouterr().err

    def test_sweep_rejects_empty_selection(self, tmp_path, monkeypatch,
                                           capsys):
        assert main(["sweep", "--workloads", " , "]) == 2
        assert "no workloads" in capsys.readouterr().err

    def test_sweep_jobs_flag(self, tmp_path, monkeypatch, capsys):
        assert main(["sweep", "--workloads", "water",
                     "--instructions", "1200", "--jobs", "1"]) == 0
        assert "matrix ready" in capsys.readouterr().out

    def test_sweep_sanitize_flags(self, tmp_path, monkeypatch, capsys):
        assert main(["sweep", "--workloads", "water",
                     "--instructions", "1200", "--jobs", "1",
                     "--sanitize", "--sanitize-every", "300",
                     "--check-invariants"]) == 0
        assert "matrix ready" in capsys.readouterr().out


class TestVersion:
    def test_version_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_help_epilog_carries_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "repro version" in capsys.readouterr().out


class TestTrace:
    QUICK = ["run", "--view", "trace", "--instructions", "4000"]

    def test_trace_quick_jsonl(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main([*self.QUICK, "--out", str(out)]) == 0
        assert "events recorded" in capsys.readouterr().out
        records = [json.loads(line)
                   for line in out.read_text().splitlines()]
        assert records
        assert all({"seq", "t", "kind"} <= set(r) for r in records)
        assert _record_files(tmp_path) == []  # no record carries events

    def test_trace_chrome_format(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main([*self.QUICK, "--format", "chrome",
                     "--workload", "water", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]

    def test_trace_window_bounds_export(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert main([*self.QUICK, "--window", "50",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 50

    def test_trace_baseline_warns_empty(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main([*self.QUICK, "--config", "base-2l",
                     "--out", str(out)]) == 0
        assert "no protocol tracer hooks" in capsys.readouterr().err
        assert out.read_text() == ""

    def test_trace_unknown_config(self, tmp_path):
        assert main(["run", "--view", "trace", "--config", "nope"]) == 2

    def test_trace_job_exports_served_spans(self, tmp_path, capsys,
                                            monkeypatch):
        from repro.serve.telemetry import Span, append_span

        spans_dir = tmp_path / "queue" / "spans"
        for index, stage in enumerate(("validate", "enqueue", "claim")):
            append_span(spans_dir, Span(trace="c0ffee" + "0" * 10,
                                        job="job42", stage=stage,
                                        ts=50.0 + index, dur_s=0.1))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--view", "trace", "--job", "job42",
                     "--serve-cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 span(s)" in out and "c0ffee" in out
        # the per-job default filename keeps CI artifacts from clobbering
        doc = json.loads((tmp_path / "trace_job_job42.json").read_text())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in slices] == \
            ["validate", "enqueue", "claim"]

    def test_trace_job_without_spans_exits_two(self, tmp_path, capsys):
        assert main(["run", "--view", "trace", "--job", "nosuchjob",
                     "--serve-cache", str(tmp_path)]) == 2
        assert "no spans" in capsys.readouterr().err

    def test_trace_job_honors_out(self, tmp_path):
        from repro.serve.telemetry import Span, append_span

        append_span(tmp_path / "queue" / "spans",
                    Span(trace="t" * 16, job="j1", stage="respond",
                         ts=1.0, dur_s=0.0))
        out = tmp_path / "custom.json"
        assert main(["run", "--view", "trace", "--job", "j1",
                     "--serve-cache", str(tmp_path),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["traceEvents"]

    def test_trace_reads_no_record_file(self, tmp_path, capsys):
        path = tmp_path / "record.json"
        path.write_text("{}")
        assert main(["run", str(path), "--view", "trace"]) == 2
        assert "reads no RECORD" in capsys.readouterr().err


class TestReportHist:
    def test_missing_record_exits_two(self, tmp_path, monkeypatch, capsys):
        # a RECORD path names a record to read, never a cell to simulate
        import repro.experiments.runner as runner

        monkeypatch.setattr(runner, "_simulate_record", None)
        missing = tmp_path / "missing.json"
        assert main(["run", str(missing), "--view", "hist"]) == 2
        captured = capsys.readouterr()
        assert str(missing) in captured.err
        assert captured.out == ""
        assert _record_files(tmp_path) == []

    def test_hist_after_sweep(self, tmp_path, monkeypatch, capsys):
        assert main(["sweep", "--workloads", "water",
                     "--instructions", "1200", "--jobs", "1"]) == 0
        capsys.readouterr()
        assert main(["run", "--view", "hist", "--workload", "water",
                     "--instructions", "1200"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Telemetry histograms: water on D2M-NS-R")
        assert "latency.L1" in out
        assert "p99" in out

    def test_hist_lookup_keys_on_the_node_count(self, tmp_path, monkeypatch,
                                                capsys):
        # the lookup takes the config object: a 4-node system finds the
        # record a 4-node sweep wrote, not an 8-node key
        import repro.cli as cli
        import repro.experiments.runner as runner
        from repro.common.params import d2m_ns_r
        from repro.experiments.runner import get_matrix

        four = d2m_ns_r(4)
        get_matrix(workloads=["water"], configs=[four], instructions=1200,
                   quiet=True, jobs=1)
        monkeypatch.setattr(cli, "all_configs", lambda: [four])
        monkeypatch.setattr(runner, "_simulate_record", None)  # hit only
        assert main(["run", "--view", "hist", "--workload", "water",
                     "--config", "d2m-ns-r", "--instructions", "1200"]) == 0
        assert "water on D2M-NS-R" in capsys.readouterr().out

    def test_report_without_artifact_or_hist(self, capsys):
        assert main(["report"]) == 2
        assert "artifact" in capsys.readouterr().err


class TestRunHist:
    def test_run_hist_prints_digests(self, capsys):
        assert main(["run", "--config", "d2m-ns-r", "--workload", "water",
                     "--instructions", "1500", "--view", "summary,hist"]) == 0
        out = capsys.readouterr().out
        assert "Telemetry histograms" in out
        assert "mshr.residency" in out


class TestLogJson:
    def test_log_json_writes_cli_events(self, tmp_path, capsys):
        from repro.obs import runlog

        log = tmp_path / "run.log"
        try:
            assert main(["--log-json", str(log), "run",
                         "--config", "base-2l", "--workload", "water",
                         "--instructions", "1500"]) == 0
        finally:
            runlog.configure("")  # drop the global logger for later tests
        events = [json.loads(line)["event"]
                  for line in log.read_text().splitlines()]
        assert events[0] == "cli.start"
        assert "run.start" in events
        assert "run.end" in events
        assert events[-1] == "cli.end"


def _record_payload(cycles=10_000.0):
    return RunRecord("water", "sa", "D2M-NS-R", 1000, cycles=cycles,
                     msgs_per_ki=50.0, edp=3.0e8).to_json()


def _write_pair(tmp_path, candidate):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(_record_payload()))
    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(candidate))
    return str(baseline), str(path)


class TestCompare:
    def test_identical_payloads_exit_zero(self, tmp_path, capsys):
        pair = _write_pair(tmp_path, _record_payload())
        assert main(["compare", *pair]) == 0
        out = capsys.readouterr().out
        assert "(no deltas beyond thresholds)" in out
        assert ": OK (" in out

    def test_metric_drift_exits_three_with_delta_table(self, tmp_path,
                                                       capsys):
        pair = _write_pair(tmp_path, _record_payload(cycles=13_000.0))
        assert main(["compare", *pair]) == 3
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "REGRESSION" in out
        assert "+30.0%" in out

    def test_threshold_flag_relaxes_the_gate(self, tmp_path, capsys):
        pair = _write_pair(tmp_path, _record_payload(cycles=13_000.0))
        assert main(["compare", *pair, "--metric-threshold", "40"]) == 0

    def test_missing_candidate_exits_two(self, tmp_path, capsys):
        baseline, _ = _write_pair(tmp_path, _record_payload())
        with pytest.raises(SystemExit) as exc:
            main(["compare", baseline])
        assert exc.value.code == 2
        assert "candidate" in capsys.readouterr().err

    def test_bad_baseline_path_exits_two(self, tmp_path, capsys):
        _, candidate = _write_pair(tmp_path, _record_payload())
        assert main(["compare", str(tmp_path / "nope.json"),
                     candidate]) == 2
        assert "compare:" in capsys.readouterr().err

    def test_bench_report_exits_two(self, tmp_path, capsys):
        bench = {"schema": 1, "mode": "full", "env": {},
                 "cells": [{"config": "Base-2L", "workload": "tpcc",
                            "ips": 100.0}],
                 "geomean_ips": 100.0}
        path = tmp_path / "BENCH_2026-01-01.json"
        path.write_text(json.dumps(bench))
        assert main(["compare", str(path), str(path)]) == 2
        assert ("neither a run record nor a sweep matrix"
                in capsys.readouterr().err)

    def test_json_out_writes_report(self, tmp_path, capsys):
        pair = _write_pair(tmp_path, _record_payload(cycles=13_000.0))
        report_path = tmp_path / "report.json"
        assert main(["compare", *pair,
                     "--json-out", str(report_path)]) == 3
        doc = json.loads(report_path.read_text())
        assert doc["worst"] == "regression"
        assert any(d["severity"] == "regression" for d in doc["deltas"])


class TestDashboard:
    def test_writes_self_contained_html(self, tmp_path, monkeypatch,
                                        capsys):
        out = tmp_path / "dash.html"
        assert main(["dashboard", "--workloads", "water",
                     "--instructions", "1200", "--out", str(out)]) == 0
        assert "comparison view(s) ->" in capsys.readouterr().out
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html
        assert "Speedup over Base-2L" in html
        assert "Side by side" in html  # default d2m-ns-r vs base-2l view

    def test_unknown_config_exits_two(self, tmp_path, monkeypatch):
        assert main(["dashboard", "--config", "nope"]) == 2

    def test_unknown_workload_exits_two(self, tmp_path, monkeypatch,
                                        capsys):
        assert main(["dashboard", "--workloads", "watr"]) == 2
        assert "watr" in capsys.readouterr().err

    def test_empty_selection_exits_two(self, tmp_path, monkeypatch,
                                       capsys):
        assert main(["dashboard", "--workloads", " , "]) == 2
        assert "no workloads" in capsys.readouterr().err


class TestRunCheckingFlags:
    def test_run_reports_sanitizer_and_invariants(self, capsys):
        assert main(["run", "--config", "d2m-fs", "--workload", "water",
                     "--instructions", "1500", "--sanitize",
                     "--check-invariants"]) == 0
        out = capsys.readouterr().out
        assert "sanitizer             clean" in out
        assert "final invariants      ok" in out

    def test_run_without_flags_prints_no_check_rows(self, capsys):
        assert main(["run", "--config", "d2m-fs", "--workload", "water",
                     "--instructions", "1500"]) == 0
        out = capsys.readouterr().out
        assert "sanitizer" not in out
        assert "final invariants" not in out


class TestTimeline:
    def test_run_with_timeline_prints_sparklines(self, capsys):
        assert main(["run", "--config", "d2m-fs", "--workload", "water",
                     "--instructions", "1500", "--view", "timeline",
                     "--epoch", "128"]) == 0
        out = capsys.readouterr().out
        assert "timeline:" in out and "epochs x 128 accesses" in out

    def test_timeline_from_the_run_cache(self, tmp_path, monkeypatch,
                                         capsys):
        import repro.experiments.runner as runner

        assert main(["sweep", "--workloads", "water",
                     "--instructions", "1200", "--jobs", "1",
                     "--timeline", "--epoch", "128"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(runner, "_simulate_record", None)  # hit only
        assert main(["run", "--view", "timeline", "--workload", "water",
                     "--config", "D2M-FS", "--instructions", "1200"]) == 0
        assert "epochs x 128 accesses" in capsys.readouterr().out

    def test_timeline_json_and_rebucket(self, tmp_path, capsys):
        timeline = {"epochs": 4, "epoch_accesses": 64, "roi_epoch": 2,
                    "series": {"instructions": [1, 2, 3, 4],
                               "accesses": [64, 64, 64, 64]}}
        path = tmp_path / "tl.json"
        path.write_text(json.dumps(timeline))
        assert main(["run", str(path), "--view", "timeline",
                     "--format", "json", "--epoch", "128"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["epochs"] == 2
        assert payload["series"]["instructions"] == [3, 7]

    def test_timeline_html_page(self, tmp_path, capsys):
        record = {"workload": "water", "timeline": {
            "epochs": 3, "epoch_accesses": 64, "roi_epoch": 1,
            "series": {"instructions": [1, 2, 3],
                       "accesses": [64, 64, 64]}}}
        path = tmp_path / "record.json"
        path.write_text(json.dumps(record))
        out = tmp_path / "tl.html"
        assert main(["run", str(path), "--view", "timeline",
                     "--format", "html", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"timeline (html) -> {out}\n"
        assert "Phase timeline" in out.read_text()

    def test_uncached_cell_is_a_clean_error(self, tmp_path, monkeypatch,
                                            capsys):
        # an uncached cell is simulated; when that run fails, the view
        # prints the failure and exits one, with no traceback or record
        import repro.experiments.runner as runner

        def broken(spec):
            raise RuntimeError("boom")

        monkeypatch.setattr(runner, "_simulate_record", broken)
        assert main(["run", "--view", "timeline", "--workload", "water",
                     "--config", "D2M-FS", "--instructions", "1200"]) == 1
        captured = capsys.readouterr()
        assert "water on D2M-FS (seed 1): RuntimeError: boom" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert _record_files(tmp_path) == []

    def test_malformed_timeline_fails_the_schema(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"epochs": 3, "series": {}}))
        assert main(["run", str(path), "--view", "timeline"]) == 2
        assert capsys.readouterr().err

    def test_record_without_a_timeline_exits_two(self, tmp_path, capsys):
        path = tmp_path / "record.json"
        path.write_text(json.dumps({"workload": "water"}))
        assert main(["run", str(path), "--view", "timeline"]) == 2
        assert "no epoch series" in capsys.readouterr().err

    def test_unreadable_record_file_exits_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.json")]) == 2
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"no_such_field": 1}))
        assert main(["run", str(path)]) == 2
        assert "not a run record" in capsys.readouterr().err

    def test_job_timeline_rejects_html(self, tmp_path, capsys):
        assert main(["run", "--view", "timeline", "--job", "j1",
                     "--serve-cache", str(tmp_path),
                     "--format", "html"]) == 2
        assert "html renders one record" in capsys.readouterr().err

    def test_job_timeline_of_an_unknown_job_exits_two(self, tmp_path,
                                                      capsys):
        assert main(["run", "--view", "timeline", "--job", "nope",
                     "--serve-cache", str(tmp_path)]) == 2
        assert "no such job" in capsys.readouterr().err
