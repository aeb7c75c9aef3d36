"""Self-tests of the benchmark: its contract, its checks and its tracer."""

import json
import re
import subprocess
import sys

import pytest

import layers
import metrics
import phases
from conftest import BENCH, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(phases.WORKLOADS))
def test_quick_run_emits_every_declared_metric(workload, trace):
    proc, result = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = metrics.PER_LAYER_UNITS if trace else metrics.END_TO_END_UNITS
    assert list(result["metrics"]) == list(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


def test_benchmark_json_mirrors_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(phases.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [row[:3] for row in metrics.PER_LAYER]
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(m["better"] in ("higher", "lower")
               for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_every_layer_metric_names_what_it_should_move():
    e2e = {row[0] for row in metrics.END_TO_END} | {"none"}
    for name, _unit, _better, moves, on in metrics.PER_LAYER:
        assert moves in e2e, name
        assert set(on.split(",")) <= set(phases.WORKLOADS), name


def _session(tmp_path):
    return phases.Session("sim-hit", 3, phases.QUICK, tmp_path, jobs=1)


def test_corrupted_snapshot_is_a_failure(tmp_path, clean_env):
    session = _session(tmp_path)
    sim = session.sim_pass(session.build_cells())
    session.verify(sim, every_cell=True)
    assert session.failed == 0 and session.attempted == 9
    label = next(iter(sim.snapshots))
    sim.snapshots[label]["cycles"] += 1.0
    session.verify(sim, every_cell=True)
    assert session.failed == 1
    assert session.failed / session.attempted > 0


def test_500_answer_is_a_failure(tmp_path, clean_env, monkeypatch):
    async def broken(self, method, path, headers, body):
        return 500, {"error": "injected"}, {}

    monkeypatch.setattr(phases.ServeApp, "_dispatch", broken)
    session = _session(tmp_path)
    session.rounds.append({})
    with phases.ServeThread(session.fresh_cache("serve")) as server:
        job = session._post(server.port, {"workloads": ["water"]})
    assert job is None
    assert session.failed == 1 and session.attempted == 1


def test_tracer_restores_originals_and_accounts_self_time():
    import repro.core.node as node

    original = vars(node.D2MNode)["lookup"]
    tracer = layers.Tracer()
    tracer.install(layers.SIM_HOOKS + layers.SWEEP_HOOKS
                   + layers.CHECK_HOOKS)
    assert vars(node.D2MNode)["lookup"] is not original
    assert tracer.restore() == []
    assert vars(node.D2MNode)["lookup"] is original
    assert tracer.missing == []

    tracer = layers.Tracer()
    tracer.install((("repro.core.node", "D2MNode", ("gone",), "x", "timed"),
                    ("repro.nowhere", None, ("f",), "y", "count")))
    assert tracer.missing == ["repro.core.node.D2MNode.gone",
                              "repro.nowhere.f"]
    assert tracer.restore() == []

    def leaf():
        return sum(range(1000))

    tracer = layers.Tracer()
    wrapped = tracer._timed(leaf, "leaf")
    with tracer.span("root"):
        for _ in range(10):
            wrapped()
    assert tracer.calls("leaf") == 10
    covered = sum(v[2] for v in tracer.totals.values())
    assert covered == pytest.approx(tracer.total_s("root"), rel=1e-9)
    assert tracer.edge_s("root", "leaf") == pytest.approx(
        tracer.total_s("leaf"))
    assert tracer.self_s("root") == pytest.approx(
        tracer.total_s("root") - tracer.total_s("leaf"))


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-hit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
