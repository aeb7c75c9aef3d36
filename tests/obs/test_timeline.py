"""Epoch time-series telemetry: sampler contracts, driver parity, drift.

The two load-bearing guarantees under test:

* attaching a :class:`TimelineSampler` never perturbs the simulation —
  stats are bit-identical with sampling on or off, in both drivers;
* the scalar loop and the batched fast path emit *identical* epoch
  series (the batched driver aligns its chunks to the epoch length and
  flushes deferred aggregates before each snapshot).
"""

import json

import pytest

from repro.common.params import all_configs, base_2l
from repro.core.hierarchy import build_hierarchy
from repro.obs.compare import (
    NOTE,
    OK,
    REGRESSION,
    compare_records,
    compare_timelines,
)
from repro.obs.timeline import (
    MAX_EPOCHS,
    TIMELINE_SERIES,
    TimelineSampler,
    TimelineStreamWriter,
    phase_drift,
    rebucket_timeline,
    timeline_text,
    validate_timeline,
)
from repro.sim.bench import BENCH_CONFIGS, BENCH_WORKLOADS, result_snapshot
from repro.sim.perf import PerfModel
from repro.sim.simulator import Simulator
from repro.workloads.registry import make_workload
from tests.sim.test_simulator import _ScriptedWorkload, ifetch


def _config(name):
    return {c.name: c for c in all_configs()}[name]


def _simulate(config, workload_name, batched, *, epoch=0, instructions=900,
              warmup=300, seed=3):
    """One small run; returns (stats snapshot, timeline summary)."""
    hierarchy = build_hierarchy(config)
    samplers = [TimelineSampler(epoch=epoch)] if epoch else []
    simulator = Simulator(hierarchy, observers=samplers)
    workload = make_workload(workload_name, config.nodes, hierarchy.amap,
                             seed=seed)
    result = simulator.run(workload, instructions, seed=seed, warmup=warmup,
                           batched=batched)
    perf = PerfModel(config.ooo).summarize(result)
    snap = result_snapshot(result, perf.cycles)
    return snap, (samplers[0].summary() if samplers else {})


def make_timeline(series_values, epoch_accesses=64, roi_epoch=0):
    """A minimal valid summary: every series cloned from one shape."""
    epochs = len(series_values)
    return {"epochs": epochs, "epoch_accesses": epoch_accesses,
            "roi_epoch": roi_epoch,
            "series": {name: list(series_values)
                       for name in TIMELINE_SERIES}}


class TestSamplerContract:
    def test_unsampled_summary_is_the_empty_contract(self):
        assert TimelineSampler(epoch=64).summary() == {"epochs": 0}

    def test_unbound_snapshots_build_a_valid_summary(self):
        sampler = TimelineSampler(epoch=64)
        sampler.snapshot(100, 64)
        sampler.snapshot(250, 128)
        summary = sampler.summary()
        assert summary["epochs"] == 2
        assert summary["epoch_accesses"] == 64
        assert summary["series"]["instructions"] == [100, 150]
        assert summary["series"]["accesses"] == [64, 64]
        assert validate_timeline(summary) == []

    def test_mark_roi_pins_the_boundary_and_rebaselines(self):
        sampler = TimelineSampler(epoch=64)
        sampler.snapshot(100, 64)
        sampler.on_roi()  # counters reset to zero at the ROI boundary
        sampler.snapshot(40, 64)
        summary = sampler.summary()
        assert summary["roi_epoch"] == 1
        # post-ROI delta reads against a zero baseline, not the warmup
        assert summary["series"]["instructions"] == [100, 40]

    def test_pair_merge_caps_storage_and_doubles_the_epoch(self):
        sampler = TimelineSampler(epoch=8)
        for i in range(MAX_EPOCHS + 1):
            sampler.snapshot((i + 1) * 10, (i + 1) * 8)
        summary = sampler.summary()
        assert summary["epochs"] == (MAX_EPOCHS + 1 + 1) // 2
        assert summary["epoch_accesses"] == 16
        # delta series merge by sum: total mass is conserved
        assert sum(summary["series"]["instructions"]) == (MAX_EPOCHS + 1) * 10
        assert validate_timeline(summary) == []

    def test_finalize_flushes_only_partial_epochs(self):
        # the run's end closes a trailing partial epoch, never an empty
        # one: 64 single-access instructions fill exactly one 64-access
        # epoch, 65 spill into a second
        for batched in (False, True):
            for instructions, epochs in ((64, 1), (65, 2)):
                hierarchy = build_hierarchy(base_2l(1))
                trace = [ifetch(0x1000 + 64 * i)
                         for i in range(instructions)]
                sampler = TimelineSampler(epoch=64)
                Simulator(hierarchy, observers=[sampler]).run(
                    _ScriptedWorkload(trace, hierarchy), instructions,
                    batched=batched)
                assert sampler.summary()["epochs"] == epochs, batched

    def test_stream_writer_appends_jsonl_rows(self, tmp_path):
        path = tmp_path / "tl-1.jsonl"
        writer = TimelineStreamWriter(str(path))
        sampler = TimelineSampler(epoch=64, on_epoch=writer)
        sampler.snapshot(100, 64)
        sampler.snapshot(250, 128)
        writer.close()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["epoch"] for row in rows] == [0, 1]
        assert rows[1]["instructions"] == 150

    def test_stream_failures_never_raise(self):
        writer = TimelineStreamWriter("/no/such/dir/tl.jsonl")
        writer(0, {"instructions": 1})  # swallowed OSError
        writer.close()


class TestValidateTimeline:
    def test_off_and_empty_contracts(self):
        assert validate_timeline({}) == []
        assert validate_timeline({"epochs": 0}) == []
        assert validate_timeline({"epochs": 0, "series": {}}) \
            == ["empty timeline carries extra keys: series"]

    def test_non_mapping_and_bad_epochs(self):
        assert validate_timeline([1, 2]) \
            == ["timeline is list, not a mapping"]
        assert validate_timeline({"epochs": "3"}) \
            == ["epochs is str, not an int"]
        assert validate_timeline({"epochs": True}) \
            == ["epochs is bool, not an int"]
        assert validate_timeline({"epochs": -1}) \
            == ["epochs is negative (-1)"]

    def test_series_shape_is_enforced(self):
        good = make_timeline([1, 2, 3])
        assert validate_timeline(good) == []
        short = make_timeline([1, 2, 3])
        short["series"]["noc_hops"] = [1]
        assert any("expected 3" in p for p in validate_timeline(short))
        alien = make_timeline([1, 2, 3])
        alien["series"]["warp_drive"] = [0, 0, 0]
        assert any("unknown series" in p for p in validate_timeline(alien))
        floats = make_timeline([1, 2, 3])
        floats["series"]["accesses"] = [1.5, 2, 3]
        assert any("non-int" in p for p in validate_timeline(floats))

    def test_roi_and_unknown_keys(self):
        late = make_timeline([1, 2], roi_epoch=5)
        assert any("beyond epochs" in p for p in validate_timeline(late))
        extra = make_timeline([1, 2])
        extra["color"] = "red"
        assert any("unknown timeline keys" in p
                   for p in validate_timeline(extra))
        capped = make_timeline([1, 2])
        capped["md1_capacity"] = 64
        capped["md2_capacity"] = 128
        assert validate_timeline(capped) == []


class TestPhaseDrift:
    def test_identical_shapes_drift_zero(self):
        assert phase_drift([5, 5, 5, 5], [5, 5, 5, 5]) == 0.0
        # equal shape, scaled totals: still zero (totals cancel)
        assert phase_drift([1, 2, 3], [10, 20, 30]) == pytest.approx(0.0)

    def test_disjoint_phases_drift_to_one(self):
        assert phase_drift([10, 0, 0, 0], [0, 0, 0, 10]) \
            == pytest.approx(1.0)

    def test_same_totals_different_phase_scores_high(self):
        early = [8, 2, 0, 0]
        late = [0, 0, 2, 8]
        assert sum(early) == sum(late)
        assert phase_drift(early, late) > 0.5

    def test_degenerate_inputs_drift_zero(self):
        assert phase_drift([], [1, 2]) == 0.0
        assert phase_drift([0, 0], [1, 2]) == 0.0
        assert phase_drift([1, 2], [0, 0]) == 0.0

    def test_truncates_to_common_length(self):
        assert phase_drift([1, 1, 1, 1, 99], [1, 1, 1, 1]) == 0.0


class TestRebucket:
    def test_coarsens_to_the_requested_epoch(self):
        timeline = make_timeline([1, 2, 3, 4], epoch_accesses=64,
                                 roi_epoch=2)
        out = rebucket_timeline(timeline, 256)
        assert out["epochs"] == 1
        assert out["epoch_accesses"] == 256
        assert out["roi_epoch"] == 0
        assert out["series"]["instructions"] == [10]
        # instantaneous gauges keep the peak, not the sum
        assert out["series"]["md1_occ"] == [4]
        # the input is untouched (display-side copy)
        assert timeline["epochs"] == 4

    def test_noop_at_or_beyond_target(self):
        timeline = make_timeline([1, 2], epoch_accesses=512)
        assert rebucket_timeline(timeline, 512) == timeline
        assert rebucket_timeline({"epochs": 0}, 512) == {"epochs": 0}


class TestTimelineText:
    def test_renders_sparklines_with_roi(self):
        text = timeline_text(make_timeline([1, 2, 3, 4], roi_epoch=2))
        assert "4 epochs x 64 accesses" in text
        assert "ROI at epoch 2" in text
        assert "instructions" in text and "md1_occ" in text

    def test_empty_timeline_says_so(self):
        assert timeline_text({"epochs": 0}) == "timeline: no epochs sampled"
        assert timeline_text({}) == "timeline: no epochs sampled"


class TestDriverParity:
    """The acceptance gate: scalar and batched series are identical."""

    @pytest.mark.parametrize("config_name", BENCH_CONFIGS)
    @pytest.mark.parametrize("workload_name", BENCH_WORKLOADS)
    def test_identical_epoch_series(self, config_name, workload_name):
        config = _config(config_name)
        scalar_snap, scalar_tl = _simulate(config, workload_name, False,
                                           epoch=64)
        batched_snap, batched_tl = _simulate(config, workload_name, True,
                                             epoch=64)
        assert scalar_tl == batched_tl
        assert scalar_snap == batched_snap
        assert scalar_tl["epochs"] > 1
        assert validate_timeline(scalar_tl) == []

    @pytest.mark.parametrize("batched", [False, True])
    def test_sampling_never_perturbs_the_stats(self, batched):
        # bit-identity with the sampler on vs off, per driver
        config = _config("D2M-NS-R")
        plain, _ = _simulate(config, "mix1", batched, epoch=0)
        sampled, timeline = _simulate(config, "mix1", batched, epoch=64)
        assert sampled == plain
        assert timeline["epochs"] > 1

    def test_roi_epoch_matches_the_warmup_boundary(self):
        config = _config("D2M-FS")
        _, timeline = _simulate(config, "tpcc", True, epoch=64,
                                instructions=900, warmup=300)
        assert 0 < timeline["roi_epoch"] < timeline["epochs"]
        _, cold = _simulate(config, "tpcc", True, epoch=64, warmup=0)
        assert cold["roi_epoch"] == 0


class TestCompareTimelines:
    def test_both_off_is_silent(self):
        assert compare_timelines({}, {"epochs": 0}) == ([], [])

    def test_one_sided_timeline_is_a_note(self):
        deltas, notes = compare_timelines({}, make_timeline([1, 2]))
        assert [d.severity for d in deltas] == [NOTE]
        assert deltas[0].key == "timeline.epochs"
        assert "candidate" in deltas[0].note

    def test_epoch_length_mismatch_skips_the_measure(self):
        deltas, notes = compare_timelines(
            make_timeline([1, 2], epoch_accesses=64),
            make_timeline([1, 2], epoch_accesses=128))
        assert deltas == []
        assert any("phase drift not measured" in n for n in notes)

    def test_identical_series_produce_no_deltas(self):
        timeline = make_timeline([1, 2, 3])
        deltas, notes = compare_timelines(timeline, make_timeline([1, 2, 3]))
        assert deltas == [] and notes == []

    def test_same_totals_different_phase_is_a_regression(self):
        early = make_timeline([8, 2, 0, 0])
        late = make_timeline([0, 0, 2, 8])
        deltas, _ = compare_timelines(early, late)
        drifted = {d.key: d for d in deltas}
        key = "timeline.instructions.phase_drift"
        assert drifted[key].severity == REGRESSION
        # the sums ride along so "same totals" is visible at a glance
        assert drifted[key].baseline == drifted[key].candidate == 10.0
        assert "KS distance" in drifted[key].note

    def test_cap_limits_the_severity(self):
        deltas, _ = compare_timelines(make_timeline([8, 2, 0, 0]),
                                      make_timeline([0, 0, 2, 8]), cap=NOTE)
        assert {d.severity for d in deltas} == {NOTE}

    def test_roi_shift_is_noted(self):
        _, notes = compare_timelines(make_timeline([1, 2], roi_epoch=0),
                                     make_timeline([1, 2], roi_epoch=1))
        assert any("ROI boundary moved" in n for n in notes)


class TestCompareRecordsDrift:
    """Same scalar totals, shifted phases -> the report flags drift."""

    def _record(self, shape):
        from repro.experiments.records import RunRecord
        record = RunRecord("water", "sa", "D2M-NS-R", 1000, cycles=10_000.0,
                           msgs_per_ki=50.0, edp=3.0e8)
        record.timeline = make_timeline(shape)
        return record

    def test_phase_drift_surfaces_in_record_reports(self):
        report = compare_records(self._record([8, 2, 0, 0]),
                                 self._record([0, 0, 2, 8]))
        drift = [d for d in report.deltas
                 if d.key.endswith(".phase_drift")]
        assert drift and report.worst == REGRESSION
        # every scalar metric is identical: only the timeline complains
        scalar = [d for d in report.deltas
                  if not d.key.startswith(("timeline.", "hist."))]
        assert all(d.severity == OK for d in scalar)

    def test_informational_mode_caps_at_note(self):
        report = compare_records(self._record([8, 2, 0, 0]),
                                 self._record([0, 0, 2, 8]),
                                 informational=True)
        assert report.worst == NOTE


class TestRenderPanels:
    def _timeline(self):
        _, timeline = _simulate(_config("D2M-NS-R"), "mix1", True, epoch=64)
        return timeline

    def test_dashboard_panels_cover_ips_and_md_occupancy(self):
        from repro.obs.render import timeline_panels
        html = timeline_panels(self._timeline())
        assert "Phase timeline" in html
        assert "Instructions retired" in html
        assert "MD1/MD2 occupancy" in html
        assert html.count("<svg") >= 2

    def test_roi_rule_is_drawn_when_inside_the_run(self):
        from repro.obs.render import svg_timeline
        svg = svg_timeline([("instructions", [1, 2, 3, 4])], roi_epoch=2)
        assert "stroke-dasharray" in svg
        flat = svg_timeline([("instructions", [1, 2, 3, 4])], roi_epoch=0)
        assert "stroke-dasharray" not in flat

    def test_degenerate_timelines_render_gracefully(self):
        from repro.obs.render import svg_timeline, timeline_panels
        assert svg_timeline([("instructions", [5])], roi_epoch=0) == ""
        assert timeline_panels({}) == ""
        assert "single epoch" in timeline_panels(
            make_timeline([7])).lower() or timeline_panels(
            make_timeline([7])) != ""

    def test_standalone_page_is_a_document(self):
        from repro.obs.render import timeline_page
        page = timeline_page(self._timeline())
        assert page.startswith("<!DOCTYPE html>")
        assert "Phase timeline" in page
