"""`repro verify` wiring: report assembly, rendering, CLI exit codes."""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.verify.coverage import CoverageReport, TransitionCoverage
from repro.verify.extract import Finding
from repro.verify.model import ModelResult, Violation
from repro.verify.report import (
    VerificationReport,
    run_verification,
    write_json,
)


def _report(**kw):
    defaults = dict(spec_findings=[], fact_count=10, transition_count=5,
                    model_results=[], model_checked=False, coverage=None)
    defaults.update(kw)
    return VerificationReport(**defaults)


class TestReportVerdict:
    def test_spec_findings_fail(self):
        finding = Finding(kind="undeclared", module="m", qualname="f",
                          fact="stat:x", detail="x")
        assert not _report(spec_findings=[finding]).ok

    def test_model_violation_fails_only_when_checked(self):
        bad = ModelResult(protocol="mesi", cores=2, lines=1, states=3,
                          steps=9, violations=[
                              Violation(invariant="swmr", detail="d",
                                        path=("load(n0)",))],
                          fired=set())
        assert not _report(model_results=[bad], model_checked=True).ok

    def test_unfired_modeled_transition_fails(self):
        # A clean result that never fired anything: every modeled mesi
        # transition shows up as drift.
        empty = ModelResult(protocol="mesi", cores=2, lines=1, states=3,
                            steps=9, violations=[], fired=set())
        report = _report(model_results=[empty], model_checked=True)
        assert report.unfired["mesi"]
        assert not report.ok

    def test_coverage_finding_fails(self):
        cov = CoverageReport(runs=["r"], transitions=[
            TransitionCoverage(tid="d2m.x", protocol="d2m",
                               exercised=False, via="", cold=None)])
        assert not _report(coverage=cov).ok

    def test_clean_report_ok_and_renders(self):
        report = _report()
        assert report.ok
        text = report.render()
        assert "spec reconcile" in text
        assert "10 facts" in text


class TestRunVerification:
    def test_static_only_pass(self):
        report = run_verification()
        assert report.ok
        assert not report.model_checked
        assert report.coverage is None
        assert report.fact_count > 100
        assert report.transition_count > 30

    def test_model_check_pass(self):
        report = run_verification(model_check=True)
        assert report.ok
        assert report.model_checked
        assert report.model_violations == 0
        assert report.unfired == {}
        assert "model check [d2m]" in report.render()

    def test_json_round_trip(self, tmp_path):
        report = run_verification(model_check=True)
        out = tmp_path / "verify.json"
        write_json(report, str(out))
        doc = json.loads(out.read_text())
        assert doc["ok"] is True
        assert doc["spec"]["findings"] == []
        assert {c["protocol"] for c in doc["model"]["configs"]} == {
            "mesi", "d2m"}


class TestCli:
    def test_verify_exits_zero(self, capsys):
        assert main(["verify"]) == 0
        assert "spec reconcile" in capsys.readouterr().out

    def test_verify_model_check_writes_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--model-check",
                     "--json-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["ok"] is True
        assert "model" in doc

    def test_verify_exits_one_on_findings(self, monkeypatch, capsys):
        from repro.verify import report as report_mod

        def broken(model_check=False, coverage=False):
            finding = Finding(kind="undeclared", module="m",
                              qualname="f", fact="stat:x", detail="boom")
            return _report(spec_findings=[finding])

        monkeypatch.setattr(report_mod, "run_verification", broken)
        assert main(["verify"]) == 1
        assert "boom" in capsys.readouterr().out


class TestEquivalenceGate:
    """A batched run that diverges from its reference run fails the
    coverage pass and names the cell, in the report and at the CLI."""

    @pytest.fixture
    def drifting(self, monkeypatch):
        from repro.sim import runner
        from repro.verify import coverage

        # one small cell, no probes, and no spec transitions to cover,
        # so only the equivalence gate can decide the verdict
        monkeypatch.setattr(coverage, "BENCH_CONFIGS", ("Base-2L",))
        monkeypatch.setattr(coverage, "BENCH_WORKLOADS", ("tpcc",))
        monkeypatch.setattr(coverage, "QUICK_INSTRUCTIONS", 400)
        monkeypatch.setattr(coverage, "QUICK_WARMUP", 200)
        monkeypatch.setattr(coverage, "PROBES", ())
        monkeypatch.setattr(coverage, "directed_signals", lambda: [])
        monkeypatch.setattr(coverage, "SPECS", {})
        real = runner.run_workload
        drift = {"cycles": 0}

        def run_workload(*args, batched=True, **kwargs):
            outcome = real(*args, batched=batched, **kwargs)
            if batched:
                perf = replace(outcome.perf,
                               cycles=outcome.perf.cycles + drift["cycles"])
                outcome = replace(outcome, perf=perf)
            return outcome

        monkeypatch.setattr(runner, "run_workload", run_workload)
        return drift

    def test_matching_drivers_pass(self, drifting):
        report = run_verification(coverage=True)
        assert report.coverage.compared == ["Base-2L/tpcc"]
        assert report.coverage.divergent == []
        assert report.ok
        assert "equivalence: 1/1 run(s)" in report.render()

    def test_divergence_fails_the_gate(self, drifting, capsys):
        drifting["cycles"] = 1
        report = run_verification(coverage=True)
        assert not report.ok
        assert report.coverage.divergent == ["Base-2L/tpcc"]
        assert "DIVERGED: Base-2L/tpcc" in report.render()
        doc = report.to_json()
        assert doc["ok"] is False
        assert doc["coverage"]["equivalence"]["divergent"] == [
            "Base-2L/tpcc"]
        assert main(["verify", "--coverage"]) == 1
        assert "DIVERGED: Base-2L/tpcc" in capsys.readouterr().out
