"""Tests for the command-line interface."""

import json
import sys

import pytest

from repro.cli import ARTIFACTS, main


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
                     "--instructions", "1500", "--profile-attrib"]) == 0
        out = capsys.readouterr().out
        assert "slow-tail attribution" in out
        assert "fallback accesses" in out

    def test_unknown_config_rejected(self, capsys):
        assert main(["run", "--config", "nope", "--workload", "water"]) == 2

    def test_unknown_workload_rejected(self):
        assert main(["run", "--config", "base-2l",
                     "--workload", "nope"]) == 2


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
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "--workloads", "water",
                     "--instructions", "1200"]) == 0
        assert "matrix ready" in capsys.readouterr().out

    def test_sweep_rejects_typo(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "--workloads", "watr"]) == 2
        assert "watr" in capsys.readouterr().err

    def test_sweep_rejects_empty_selection(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "--workloads", " , "]) == 2
        assert "no workloads" in capsys.readouterr().err

    def test_sweep_jobs_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "--workloads", "water",
                     "--instructions", "1200", "--jobs", "1"]) == 0
        assert "matrix ready" in capsys.readouterr().out

    def test_sweep_sanitize_flags(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
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
    def test_trace_quick_jsonl(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--quick", "--out", str(out)]) == 0
        assert "events recorded" in capsys.readouterr().out
        records = [json.loads(line)
                   for line in out.read_text().splitlines()]
        assert records
        assert all({"seq", "t", "kind"} <= set(r) for r in records)

    def test_trace_chrome_format(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "--quick", "--format", "chrome",
                     "--workload", "water", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]

    def test_trace_window_bounds_export(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--quick", "--window", "50",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 50

    def test_trace_baseline_warns_empty(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--quick", "--config", "base-2l",
                     "--out", str(out)]) == 0
        assert "no protocol tracer hooks" in capsys.readouterr().err
        assert out.read_text() == ""

    def test_trace_unknown_config(self, tmp_path):
        assert main(["trace", "--config", "nope"]) == 2

    def test_trace_job_exports_served_spans(self, tmp_path, capsys,
                                            monkeypatch):
        from repro.serve.telemetry import Span, append_span

        spans_dir = tmp_path / "queue" / "spans"
        for index, stage in enumerate(("validate", "enqueue", "claim")):
            append_span(spans_dir, Span(trace="c0ffee" + "0" * 10,
                                        job="job42", stage=stage,
                                        ts=50.0 + index, dur_s=0.1))
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "--job", "job42",
                     "--serve-cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 span(s)" in out and "c0ffee" in out
        # the per-job default filename keeps CI artifacts from clobbering
        doc = json.loads((tmp_path / "trace_job_job42.json").read_text())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in slices] == \
            ["validate", "enqueue", "claim"]

    def test_trace_job_without_spans_exits_two(self, tmp_path, capsys):
        assert main(["trace", "--job", "nosuchjob",
                     "--serve-cache", str(tmp_path)]) == 2
        assert "no spans" in capsys.readouterr().err

    def test_trace_job_honors_out(self, tmp_path):
        from repro.serve.telemetry import Span, append_span

        append_span(tmp_path / "queue" / "spans",
                    Span(trace="t" * 16, job="j1", stage="respond",
                         ts=1.0, dur_s=0.0))
        out = tmp_path / "custom.json"
        assert main(["trace", "--job", "j1", "--serve-cache",
                     str(tmp_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["traceEvents"]


class TestReportHist:
    def test_missing_record_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["report", "--hist", "--workload", "water",
                     "--instructions", "1200"]) == 2
        assert "no cached run record" in capsys.readouterr().err

    def test_hist_after_sweep(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "--workloads", "water",
                     "--instructions", "1200", "--jobs", "1"]) == 0
        capsys.readouterr()
        assert main(["report", "--hist", "--workload", "water",
                     "--instructions", "1200"]) == 0
        out = capsys.readouterr().out
        assert "Telemetry histograms: water on D2M-NS-R" in out
        assert "latency.L1" in out
        assert "p99" in out

    def test_hist_lookup_keys_on_the_node_count(self, tmp_path, monkeypatch,
                                                capsys):
        # the lookup takes the config object: a 4-node system finds the
        # record a 4-node sweep wrote, not an 8-node key
        import repro.cli as cli
        from repro.common.params import d2m_ns_r
        from repro.experiments.runner import get_matrix

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        four = d2m_ns_r(4)
        get_matrix(workloads=["water"], configs=[four], instructions=1200,
                   quiet=True, jobs=1)
        monkeypatch.setattr(cli, "all_configs", lambda: [four])
        assert main(["report", "--hist", "--workload", "water",
                     "--config", "d2m-ns-r", "--instructions", "1200"]) == 0
        assert "water on D2M-NS-R" in capsys.readouterr().out

    def test_report_without_artifact_or_hist(self, capsys):
        assert main(["report"]) == 2
        assert "artifact" in capsys.readouterr().err


class TestRunHist:
    def test_run_hist_prints_digests(self, capsys):
        assert main(["run", "--config", "d2m-ns-r", "--workload", "water",
                     "--instructions", "1500", "--hist"]) == 0
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


def _bench_payload(ips_scale=1.0):
    cells = [{"config": config, "workload": workload,
              "ips": round(50_000.0 * ips_scale, 1),
              "phases_s": {"stats": 0.01},
              "simulate_s": 0.7, "equivalent": True}
             for config in ("Base-2L", "D2M-NS-R")
             for workload in ("tpcc", "mix1")]
    return {"schema": 1, "date": "2026-08-06", "mode": "full",
            "matrix": {"configs": ["Base-2L", "D2M-NS-R"],
                       "workloads": ["tpcc", "mix1"], "seed": 1,
                       "instructions": 20_000, "warmup": 10_000,
                       "repetitions": 3},
            "env": {}, "cells": cells,
            "geomean_ips": round(50_000.0 * ips_scale, 1),
            "equivalence_checked": True, "equivalence_ok": True}


class TestCompare:
    def test_identical_payloads_exit_zero(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_2026-01-01.json"
        baseline.write_text(json.dumps(_bench_payload()))
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps(_bench_payload()))
        assert main(["compare", str(candidate),
                     "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "ips.Base-2L/tpcc" in out  # per-cell table, ok rows included
        assert ": OK (" in out

    def test_ips_drop_exits_three_with_cell_table(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_2026-01-01.json"
        baseline.write_text(json.dumps(_bench_payload()))
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps(_bench_payload(ips_scale=0.85)))
        assert main(["compare", str(candidate),
                     "--baseline", str(baseline)]) == 3
        out = capsys.readouterr().out
        assert "ips.D2M-NS-R/mix1" in out
        assert "REGRESSION" in out
        assert "-15.0%" in out

    def test_threshold_flag_relaxes_the_gate(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_2026-01-01.json"
        baseline.write_text(json.dumps(_bench_payload()))
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps(_bench_payload(ips_scale=0.85)))
        assert main(["compare", str(candidate),
                     "--baseline", str(baseline),
                     "--ips-threshold", "20"]) == 0

    def test_missing_candidate_exits_two(self, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.chdir(tmp_path)  # no BENCH_*.json anywhere in here
        assert main(["compare", "--baseline", "auto"]) == 2
        assert "no candidate" in capsys.readouterr().err

    def test_bad_baseline_path_exits_two(self, tmp_path, capsys):
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps(_bench_payload()))
        assert main(["compare", str(candidate),
                     "--baseline", str(tmp_path / "nope.json")]) == 2
        assert "compare:" in capsys.readouterr().err

    def test_json_out_writes_report(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_2026-01-01.json"
        baseline.write_text(json.dumps(_bench_payload()))
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps(_bench_payload(ips_scale=0.85)))
        report_path = tmp_path / "report.json"
        assert main(["compare", str(candidate), "--baseline", str(baseline),
                     "--json-out", str(report_path)]) == 3
        doc = json.loads(report_path.read_text())
        assert doc["worst"] == "regression"
        assert any(d["severity"] == "regression" for d in doc["deltas"])


class TestDashboard:
    def test_writes_self_contained_html(self, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
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
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["dashboard", "--config", "nope"]) == 2

    def test_unknown_workload_exits_two(self, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["dashboard", "--workloads", "watr"]) == 2
        assert "watr" in capsys.readouterr().err

    def test_empty_selection_exits_two(self, tmp_path, monkeypatch,
                                       capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
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
                     "--instructions", "1500", "--timeline",
                     "--epoch", "128"]) == 0
        out = capsys.readouterr().out
        assert "timeline:" in out and "epochs x 128 accesses" in out

    def test_timeline_from_the_run_cache(self, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "--workloads", "water",
                     "--instructions", "1200", "--jobs", "1",
                     "--timeline", "--epoch", "128"]) == 0
        capsys.readouterr()
        assert main(["timeline", "--workload", "water",
                     "--config", "D2M-FS", "--instructions", "1200"]) == 0
        assert "epochs x 128 accesses" in capsys.readouterr().out

    def test_timeline_json_and_rebucket(self, tmp_path, capsys):
        timeline = {"epochs": 4, "epoch_accesses": 64, "roi_epoch": 2,
                    "series": {"instructions": [1, 2, 3, 4],
                               "accesses": [64, 64, 64, 64]}}
        path = tmp_path / "tl.json"
        path.write_text(json.dumps(timeline))
        assert main(["timeline", str(path), "--format", "json",
                     "--epoch", "128"]) == 0
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
        assert main(["timeline", str(path), "--format", "html",
                     "--out", str(out)]) == 0
        assert "Phase timeline" in out.read_text()

    def test_uncached_cell_is_a_clean_error(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["timeline", "--workload", "water",
                     "--config", "D2M-FS", "--instructions", "1200"]) == 2
        assert "repro sweep" in capsys.readouterr().err

    def test_malformed_timeline_fails_the_schema(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"epochs": 3, "series": {}}))
        assert main(["timeline", str(path)]) == 2
        assert capsys.readouterr().err


class TestBenchHistory:
    def test_history_table_from_reports(self, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.chdir(tmp_path)
        report = {"schema": 1, "date": "2026-08-01", "mode": "quick",
                  "matrix": {}, "env": {}, "cells": [],
                  "geomean_ips": 123.0}
        (tmp_path / "BENCH_2026-08-01.json").write_text(json.dumps(report))
        assert main(["bench", "--history"]) == 0
        assert "BENCH_2026-08-01.json" in capsys.readouterr().out
