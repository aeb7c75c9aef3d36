"""Sweep-level sanitize / check-invariants wiring and cache upgrades."""

import pytest

import repro.experiments.runner as runner
from repro.common.params import base_2l, d2m_fs
from repro.experiments.runner import get_matrix


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
