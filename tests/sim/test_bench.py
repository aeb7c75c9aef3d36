"""Unit tests for the perf-tracking benchmark harness."""

import json

from repro.common.params import all_configs
from repro.sim import bench


def _config(name):
    return {c.name: c for c in all_configs()}[name]


class TestEquivalenceGate:
    def test_optimized_matches_reference(self):
        # the core promise: the batched production path produces
        # bit-identical statistics to the reference loop
        for name in ("Base-2L", "D2M-NS-R"):
            config = _config(name)
            reference = bench._run_once(config, "tpcc", 600, 300)
            batched = bench._run_once(config, "tpcc", 600, 300,
                                      batched=True)
            assert batched == reference, name

    def test_divergence_fails_the_gate(self, monkeypatch, capsys):
        # a batched run that drifts from the reference must flip the
        # cell's flag and the report's verdict
        monkeypatch.setattr(bench, "BENCH_CONFIGS", ("Base-2L",))
        monkeypatch.setattr(bench, "BENCH_WORKLOADS", ("tpcc",))
        monkeypatch.setattr(bench, "QUICK_INSTRUCTIONS", 400)
        monkeypatch.setattr(bench, "QUICK_WARMUP", 200)
        real = bench._run_once

        def drifting(*args, batched=False):
            snap = real(*args, batched=batched)
            if batched:
                snap["cycles"] += 1
            return snap

        monkeypatch.setattr(bench, "_run_once", drifting)
        report = bench.run_bench(quick=True)
        assert report["equivalence_ok"] is False
        assert report["cells"][0]["equivalent"] is False
        assert "DIVERGENCE in Base-2L/tpcc" in capsys.readouterr().err

    def test_snapshot_is_json_serializable(self):
        snap = bench._run_once(_config("Base-2L"), "swaptions", 400, 200)
        round_tripped = json.loads(json.dumps(snap))
        assert round_tripped == snap
        assert snap["instructions"] == 400
        assert snap["cycles"] > 0


class TestReport:
    def test_quick_report_schema(self, tmp_path, monkeypatch):
        # shrink the pinned budgets so the schema test stays fast; the
        # real budgets are exercised by the CI bench-compare job
        monkeypatch.setattr(bench, "QUICK_INSTRUCTIONS", 400)
        monkeypatch.setattr(bench, "QUICK_WARMUP", 200)
        report = bench.run_bench(quick=True, check_equivalence=False)
        assert report["schema"] == 1
        assert report["mode"] == "quick"
        assert report["matrix"]["seed"] == bench.BENCH_SEED
        assert len(report["cells"]) == (
            len(bench.BENCH_CONFIGS) * len(bench.BENCH_WORKLOADS))
        for cell in report["cells"]:
            assert cell["ips"] > 0 and cell["cold_ips"] > 0
            phases = cell["phases_s"]
            assert set(phases) == {"stats"}
            assert set(cell) == {"config", "workload", "ips", "cold_ips",
                                 "phases_s", "simulate_s"}
        assert report["geomean_ips"] > 0
        for key in ("python", "platform", "cpu_count", "commit"):
            assert key in report["env"]
        # the recorded baseline compares full-budget runs only
        assert "speedup_vs_baseline" not in report
        assert report["equivalence_checked"] is False

        out = tmp_path / "bench.json"
        bench.write_report(report, str(out))
        assert json.loads(out.read_text()) == report

    def test_baseline_cells_cover_matrix(self):
        ips = bench.SEED_BASELINE["ips"]
        want = {f"{c}/{w}" for c in bench.BENCH_CONFIGS
                for w in bench.BENCH_WORKLOADS}
        assert set(ips) == want
        assert all(v > 0 for v in ips.values())

    def test_geomean(self):
        assert bench._geomean([4.0, 9.0]) == 6.0
        assert bench._geomean([]) == 0.0
