"""Request-lifecycle spans: ids, the per-job span files, Chrome export."""

import json

import pytest

from repro.obs.trace import SPAN_STAGES, chrome_span_events
from repro.serve.telemetry import (
    Span,
    StageTimer,
    append_span,
    load_spans,
    new_trace_id,
)


def span(stage="validate", job="job1", trace="t" * 16, ts=100.0,
         dur_s=0.5, **meta):
    return Span(trace=trace, job=job, stage=stage, ts=ts, dur_s=dur_s,
                meta=dict(meta))


class TestTraceIds:
    def test_fresh_ids_are_short_hex_and_unique(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        for trace_id in ids:
            assert len(trace_id) == 16
            int(trace_id, 16)  # hex


class TestSpan:
    def test_unknown_stage_rejected_at_construction(self):
        with pytest.raises(ValueError, match="warmup"):
            span(stage="warmup")

    def test_every_declared_stage_is_accepted(self):
        for stage in SPAN_STAGES:
            assert span(stage=stage).stage == stage

    def test_to_json_flattens_meta_but_core_keys_win(self):
        record = span(cells=3, stage_override="ignored").to_json()
        assert record["cells"] == 3
        assert record["stage"] == "validate"
        # a meta key that collides with a core key must not clobber it
        record = Span(trace="t", job="j", stage="claim", ts=1.0, dur_s=0.1,
                      meta={"trace": "spoofed", "lane": 2}).to_json()
        assert record["trace"] == "t"
        assert record["lane"] == 2


class TestAppendSpan:
    def test_append_writes_one_jsonl_per_job(self, tmp_path):
        append_span(tmp_path, span(stage="validate", ts=1.0))
        append_span(tmp_path, span(stage="enqueue", ts=2.0))
        append_span(tmp_path, span(stage="claim", job="job2", ts=3.0))
        lines = (tmp_path / "job1.jsonl").read_text().splitlines()
        assert [json.loads(line)["stage"] for line in lines] == \
            ["validate", "enqueue"]
        assert (tmp_path / "job2.jsonl").exists()

    def test_unwritable_directory_never_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        append_span(blocker / "spans", span())  # swallowed OSError
        assert blocker.read_text() == "not a directory"


class TestLoadSpans:
    def test_missing_file_is_empty(self, tmp_path):
        assert load_spans(tmp_path, "nope") == []

    def test_corrupt_and_partial_lines_are_skipped(self, tmp_path):
        path = tmp_path / "job1.jsonl"
        good = json.dumps(span().to_json())
        path.write_text("not json\n" + good + "\n"
                        + '{"stage": "claim"}\n'   # no ts
                        + '[1, 2]\n'
                        + "\n")
        spans = load_spans(tmp_path, "job1")
        assert len(spans) == 1 and spans[0]["stage"] == "validate"

    def test_spans_come_back_sorted_by_start_time(self, tmp_path):
        # a stage is appended when it ends, so the file is not in
        # start order (the simulate span follows its cache-writes)
        append_span(tmp_path, span(stage="cache-write", ts=3.0))
        append_span(tmp_path, span(stage="simulate", ts=2.0))
        append_span(tmp_path, span(stage="validate", ts=1.0))
        spans = load_spans(tmp_path, "job1")
        assert [s["stage"] for s in spans] == \
            ["validate", "simulate", "cache-write"]
        assert all(s["trace"] == "t" * 16 for s in spans)


class TestStageTimer:
    def test_captures_epoch_start_and_duration(self):
        with StageTimer() as timer:
            pass
        assert timer.ts > 0
        assert timer.dur_s >= 0


class TestChromeExport:
    def test_spans_export_one_track_per_stage(self):
        spans = [span(stage=stage, ts=100.0 + i, dur_s=0.25).to_json()
                 for i, stage in enumerate(SPAN_STAGES)]
        events = chrome_span_events(spans)
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == len(SPAN_STAGES)
        # timestamps rebase to the earliest span; microsecond units
        assert min(e["ts"] for e in slices) == 0.0
        assert all(e["dur"] == 0.25e6 for e in slices)
        # the correlation id rides in args on every slice
        assert all(e["args"]["trace"] == "t" * 16 for e in slices)
        tids = {e["tid"] for e in slices}
        assert len(tids) == len(SPAN_STAGES)  # one track per stage
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names == set(SPAN_STAGES)

    def test_empty_input_still_names_the_process(self):
        events = chrome_span_events([])
        assert events[0]["name"] == "process_name"
        assert events[0]["args"]["name"] == "repro serve"

    def test_zero_duration_spans_get_a_visible_sliver(self):
        events = chrome_span_events([span(dur_s=0.0).to_json()])
        [slice_] = [e for e in events if e["ph"] == "X"]
        assert slice_["dur"] == 1.0  # 1 µs floor so the viewer shows it
