"""Unit tests for trace capture, export formats, and the tracer slot's
fan-out (the observer composite)."""

import io
import json

from repro.analysis.events import EventRing
from repro.common.observe import Observers, attach
from repro.common.params import base_2l, d2m_ns_r
from repro.core.hierarchy import build_hierarchy
from repro.obs.trace import (
    MD3_TRACK,
    chrome_events,
    event_record,
    validate_trace_record,
    write_chrome,
    write_jsonl,
)
from repro.sim.runner import run_workload


class _CountingTracer:
    def __init__(self):
        self.begins = 0
        self.emits = 0
        self.ends = 0

    def begin_access(self, node, line, region, idx, detail=""):
        self.begins += 1

    def emit(self, kind, node=None, line=None, region=None, idx=None,
             detail=""):
        self.emits += 1

    def end_access(self):
        self.ends += 1


class TestTracerFanout:
    def test_dispatches_to_all(self):
        a, b = _CountingTracer(), _CountingTracer()
        fan = Observers([a, b])
        fan.begin_access(0, 1, 2, 3)
        fan.emit("x")
        fan.end_access()
        for tracer in (a, b):
            assert (tracer.begins, tracer.emits, tracer.ends) == (1, 1, 1)

    def test_attach_composes_with_existing_tracer(self):
        hierarchy = build_hierarchy(d2m_ns_r())
        first, second = _CountingTracer(), _CountingTracer()
        assert attach(hierarchy, first)
        assert attach(hierarchy, second)
        assert attach(hierarchy, first)  # already attached: joins once
        hierarchy.protocol.tracer.emit("test")
        assert first.emits == 1
        assert second.emits == 1
        assert hierarchy.protocol.md3.tracer is hierarchy.protocol.tracer

    def test_attach_refuses_baselines(self):
        hierarchy = build_hierarchy(base_2l())
        assert attach(hierarchy, _CountingTracer()) is False


class TestTraceRecorder:
    def _traced_run(self, window=0, instructions=1500):
        recorder = EventRing(window=window)
        run_workload(d2m_ns_r(), "water", instructions=instructions,
                     seed=1, observers=[recorder])
        return recorder

    def test_records_events_with_access_time_axis(self):
        recorder = self._traced_run()
        assert recorder.recorded > 0
        times = [event.t for event in recorder.events()]
        assert times == sorted(times)
        assert times[-1] >= 1

    def test_window_keeps_only_the_tail(self):
        recorder = self._traced_run(window=100)
        assert recorder.recorded > 100
        assert len(recorder) == 100
        # the ring holds the newest events
        assert recorder.events()[-1].seq == recorder.recorded - 1

    def test_jsonl_export_is_schema_valid(self):
        recorder = self._traced_run()
        buffer = io.StringIO()
        count = write_jsonl(recorder, buffer)
        lines = buffer.getvalue().splitlines()
        assert count == len(lines) == len(recorder)
        for line in lines:
            assert validate_trace_record(json.loads(line)) is None

    def test_chrome_export_shape(self):
        recorder = self._traced_run(window=400)
        buffer = io.StringIO()
        write_chrome(recorder, buffer)
        doc = json.loads(buffer.getvalue())
        events = doc["traceEvents"]
        assert events
        phases = {event["ph"] for event in events}
        assert "M" in phases  # track name metadata
        assert "X" in phases  # slices
        # every event names a process and sits on a track
        assert all("pid" in event for event in events)
        names = [event["args"]["name"] for event in events
                 if event["name"] == "thread_name"]
        assert "MD3" in names
        # MD3-mediated transfers carry flow arrows
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes)
        if starts:
            assert all(e["tid"] == MD3_TRACK for e in finishes)


class TestChromeExportMultiNode:
    """Flow-arrow and schema guarantees on a multi-node traced sweep."""

    def _multi_node_trace(self):
        config = d2m_ns_r()
        assert config.nodes > 1  # the guarantee under test is cross-node
        recorder = EventRing(window=600)
        run_workload(config, "water", instructions=2500, seed=1,
                     observers=[recorder])
        return recorder

    def test_flow_arrows_reference_registered_tracks(self):
        recorder = self._multi_node_trace()
        events = chrome_events(recorder)
        tracks = {event["tid"] for event in events
                  if event.get("ph") == "M"
                  and event.get("name") == "thread_name"}
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert starts, "multi-node run produced no MD3-mediated transfers"
        for arrow in starts + finishes:
            assert arrow["tid"] in tracks
        # arrows pair up by flow id: one start, one finish, finish on MD3
        by_id = {}
        for arrow in starts + finishes:
            by_id.setdefault(arrow["id"], []).append(arrow["ph"])
        assert all(sorted(phases) == ["f", "s"]
                   for phases in by_id.values())
        assert all(e["tid"] == MD3_TRACK for e in finishes)
        # transfers start on more than one node's own track
        assert len({e["tid"] for e in starts}) > 1

    def test_every_windowed_event_is_schema_valid(self):
        recorder = self._multi_node_trace()
        events = recorder.events()
        assert 0 < len(events) <= 600
        for event in events:
            assert validate_trace_record(event_record(event)) is None


class TestValidateTraceRecord:
    def test_valid_record(self):
        assert validate_trace_record(
            {"seq": 0, "t": 1, "kind": "access", "node": 0}) is None

    def test_missing_required_field(self):
        assert "seq" in validate_trace_record({"t": 1, "kind": "x"})

    def test_wrong_type(self):
        assert "kind" in validate_trace_record(
            {"seq": 0, "t": 0, "kind": 3})

    def test_bool_is_not_an_int(self):
        assert "node" in validate_trace_record(
            {"seq": 0, "t": 0, "kind": "x", "node": True})

    def test_optional_trace_correlation_id(self):
        assert validate_trace_record(
            {"seq": 0, "t": 1, "kind": "access", "trace": "a" * 16}) is None
        assert "trace" in validate_trace_record(
            {"seq": 0, "t": 1, "kind": "access", "trace": 42})

    def test_unknown_field(self):
        assert "bogus" in validate_trace_record(
            {"seq": 0, "t": 0, "kind": "x", "bogus": 1})

    def test_negative_seq(self):
        assert validate_trace_record(
            {"seq": -1, "t": 0, "kind": "x"}) is not None

    def test_non_object(self):
        assert validate_trace_record([1, 2]) is not None
