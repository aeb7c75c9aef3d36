"""Unit tests for the analytic OoO performance model."""

import pytest

from repro.common.params import OoOModel
from repro.sim.perf import PerfModel
from repro.sim.simulator import SimResult


def result_with(core_instr, instr_lat, data_lat):
    return SimResult(
        name="x", instructions=sum(core_instr.values()),
        accesses=0, stats=None, buckets={},
        core_instructions=core_instr,
        core_instr_miss_latency=instr_lat,
        core_data_miss_latency=data_lat,
    )


class TestPerfModel:
    def test_base_cpi_only(self):
        model = PerfModel(OoOModel(base_cpi=0.8))
        summary = model.summarize(result_with({0: 1000}, {}, {}))
        assert summary.cycles == pytest.approx(800)

    def test_instruction_stalls_barely_hidden(self):
        ooo = OoOModel(base_cpi=1.0, instr_hide_fraction=0.0,
                       data_hide_fraction=0.6)
        model = PerfModel(ooo)
        with_i = model.summarize(result_with({0: 1000}, {0: 500}, {}))
        with_d = model.summarize(result_with({0: 1000}, {}, {0: 500}))
        assert with_i.cycles > with_d.cycles  # same latency, I hurts more

    def test_slowest_core_dominates(self):
        model = PerfModel(OoOModel())
        summary = model.summarize(result_with(
            {0: 1000, 1: 1000}, {1: 10_000}, {}))
        fast = model.summarize(result_with({0: 1000, 1: 1000}, {}, {}))
        assert summary.cycles > fast.cycles
        assert summary.per_core_cycles[1] == summary.cycles

    def test_speedup_over(self):
        model = PerfModel(OoOModel())
        slow = model.summarize(result_with({0: 1000}, {0: 1000}, {}))
        fast = model.summarize(result_with({0: 1000}, {}, {}))
        assert fast.speedup_over(slow) > 1.0
        assert slow.speedup_over(fast) < 1.0

    def test_empty_result(self):
        summary = PerfModel(OoOModel()).summarize(result_with({}, {}, {}))
        assert summary.cycles == 0.0

    def test_speedup_over_zero_cycle_runs(self):
        model = PerfModel(OoOModel())
        empty = model.summarize(result_with({}, {}, {}))
        busy = model.summarize(result_with({0: 1000}, {}, {}))
        # a zero-cycle run is infinitely fast relative to a real one...
        assert empty.speedup_over(busy) == float("inf")
        # ...the real one is infinitely slow relative to it...
        assert busy.speedup_over(empty) == 0.0
        # ...and two zero-cycle runs are equal, not 0/0.
        assert empty.speedup_over(empty) == 1.0

    def test_single_core_cpi(self):
        model = PerfModel(OoOModel(base_cpi=1.25))
        summary = model.summarize(result_with({0: 1000}, {}, {}))
        assert summary.cpi == pytest.approx(summary.cycles / 1000)
        assert summary.cpi == pytest.approx(1.25)

    def test_cpi_on_imbalanced_cores(self):
        # Regression: cpi must aggregate the per-core cycle totals, not
        # scale the slowest core by the core count.  Core 0 does 1000
        # instructions with no stalls (1000 cycles), core 1 does 1000
        # instructions plus 4000 un-hidden instruction-stall cycles
        # (5000 cycles): 6000 total cycles over 2000 instructions.
        ooo = OoOModel(base_cpi=1.0, instr_hide_fraction=0.0)
        model = PerfModel(ooo)
        summary = model.summarize(result_with(
            {0: 1000, 1: 1000}, {1: 4000}, {}))
        assert summary.cycles == pytest.approx(5000)  # critical path
        assert summary.cpi == pytest.approx(3.0)      # (1000+5000)/2000
        # the old formula (cycles * n_cores / instructions) gave 5.0
        assert summary.cpi != pytest.approx(
            summary.cycles * 2 / summary.instructions)
