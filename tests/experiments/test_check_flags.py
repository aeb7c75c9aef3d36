"""Sweep-level sanitize / check-invariants wiring and cache upgrades."""

import pytest

import repro.experiments.runner as runner
from repro.common.params import base_2l, d2m_fs
from repro.experiments.records import RunRecord
from repro.experiments.runner import (
    atomic_write_json,
    get_matrix,
    plan_matrix,
    run_cache_key,
)
from repro.sim.runner import RunSpec


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    for var in ("REPRO_FRESH", "REPRO_WARMUP", "REPRO_JOBS"):
        monkeypatch.delenv(var, raising=False)
    return tmp_path


def counting_run_spec(monkeypatch):
    calls = []
    real = runner.run_spec

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(runner, "run_spec", counted)
    return calls


class TestCheckedSweep:
    def test_records_carry_check_provenance(self, cache):
        matrix = get_matrix(workloads=["water"],
                            configs=[d2m_fs(2), base_2l(2)],
                            instructions=1_500, seed=3, quiet=True, jobs=1,
                            sanitize=True, check_invariants=True)
        d2m = matrix["water"]["D2M-FS"]
        assert d2m.sanitized and d2m.invariants_checked
        assert d2m.invariants_ok and d2m.invariant_error == ""
        # Baselines have nothing to sanitize/walk: vacuous passes.
        base = matrix["water"]["Base-2L"]
        assert base.sanitized and base.invariants_checked
        assert base.invariants_ok

    def test_unchecked_record_upgraded_on_demand(self, cache, monkeypatch):
        calls = counting_run_spec(monkeypatch)
        plain_kwargs = dict(workloads=["water"], configs=[d2m_fs(2)],
                            instructions=1_500, seed=3, quiet=True, jobs=1)
        get_matrix(**plain_kwargs)
        assert len(calls) == 1
        # The cached record lacks the requested checks: re-simulated.
        get_matrix(**plain_kwargs, sanitize=True, check_invariants=True)
        assert len(calls) == 2
        # The upgraded record now satisfies both checked and plain sweeps.
        get_matrix(**plain_kwargs, sanitize=True, check_invariants=True)
        get_matrix(**plain_kwargs)
        assert len(calls) == 2

    def test_series_less_record_misses_when_timeline_requested(
            self, cache, monkeypatch):
        calls = counting_run_spec(monkeypatch)
        plain_kwargs = dict(workloads=["water"], configs=[d2m_fs(2)],
                            instructions=1_500, seed=3, quiet=True, jobs=1)
        get_matrix(**plain_kwargs)
        assert len(calls) == 1
        # The cached record carries no epoch series: re-simulated.
        matrix = get_matrix(**plain_kwargs, timeline=256)
        assert len(calls) == 2
        record = matrix["water"]["D2M-FS"]
        assert record.timeline and record.timeline["epochs"] > 0
        # The upgraded record satisfies both timed and plain sweeps.
        get_matrix(**plain_kwargs, timeline=256)
        get_matrix(**plain_kwargs)
        assert len(calls) == 2

    def test_sanitized_sweep_metrics_identical(self, cache, monkeypatch):
        kwargs = dict(workloads=["water"], configs=[d2m_fs(2)],
                      instructions=1_500, seed=3, quiet=True, jobs=1)
        plain = get_matrix(**kwargs)["water"]["D2M-FS"]
        monkeypatch.setenv("REPRO_FRESH", "1")
        checked = get_matrix(**kwargs, sanitize=True, sanitize_every=200,
                             check_invariants=True)["water"]["D2M-FS"]
        plain_json = plain.to_json()
        checked_json = checked.to_json()
        for field in ("sanitized", "invariants_checked", "invariants_ok",
                      "invariant_error"):
            plain_json.pop(field)
            checked_json.pop(field)
        assert plain_json == checked_json

    def test_parallel_sanitized_sweep(self, cache):
        matrix = get_matrix(workloads=["water", "lu"], configs=[d2m_fs(2)],
                            instructions=1_200, seed=3, quiet=True, jobs=2,
                            sanitize=True, check_invariants=True)
        for workload in ("water", "lu"):
            record = matrix[workload]["D2M-FS"]
            assert record.sanitized and record.invariants_ok


#: each extra: the run settings that request it, and the record fields
#: that carry it
EXTRAS = {
    "hist": ({"telemetry": True},
             {"hists": {"latency.L1": {"count": 1.0}}}),
    "profile": ({"profile": True}, {"profile": {"driver": "batched"}}),
    "timeline": ({"timeline": 256}, {"timeline": {"epochs": 0}}),
    "sanitize": ({"sanitize": True}, {"sanitized": True}),
    "invariants": ({"check_invariants": True},
                   {"invariants_checked": True}),
}


def record_with(extras):
    fields = {}
    for name in extras:
        fields.update(EXTRAS[name][1])
    return RunRecord(workload="water", category="Splash2x", config="D2M-FS",
                     instructions=1_500, **fields)


class TestAcceptanceRule:
    """A cached record serves a request iff requested extras ⊆ present."""

    CELL = dict(workloads=["water"], configs=[d2m_fs(2)],
                instructions=1_500, seed=3, warmup=750)

    def plant(self, extras):
        record = record_with(extras)
        key = run_cache_key("water", "D2M-FS", 1_500, 3, 750, nodes=2)
        atomic_write_json(runner.runs_dir() / (key + ".json"),
                          record.to_json())
        return record

    def plan(self, extra=None):
        settings = EXTRAS[extra][0] if extra else {}
        return plan_matrix(**self.CELL, **{"telemetry": False, **settings})

    @pytest.mark.parametrize("extra", sorted(EXTRAS))
    def test_request_and_record_name_the_same_extra(self, extra):
        spec = RunSpec(d2m_fs(2), "water", 1_500, **EXTRAS[extra][0])
        assert spec.extras == record_with({extra}).extras == {extra}

    @pytest.mark.parametrize("extra", sorted(EXTRAS))
    def test_record_lacking_the_extra_is_a_miss(self, cache, extra):
        self.plant(set(EXTRAS) - {extra})
        plan = self.plan(extra)
        assert (len(plan.pending), plan.cached) == (1, 0)
        assert plan.pending[0].spec.extras == {extra}

    @pytest.mark.parametrize("extra", sorted(EXTRAS))
    def test_record_with_a_superset_is_a_hit(self, cache, extra):
        record = self.plant(set(EXTRAS))
        plan = self.plan(extra)
        assert (len(plan.pending), plan.cached) == (0, 1)
        assert plan.matrix["water"]["D2M-FS"].to_json() == record.to_json()

    def test_plain_request_takes_any_record(self, cache):
        self.plant(set())
        assert self.plan().cached == 1
