"""Protocol trace export (JSONL + Chrome ``trace_event``).

``repro run --view trace`` records a run's protocol event stream in an
:class:`~repro.analysis.events.EventRing` (the full stream, or a sliding
window of the last N events), each event stamped with the access index
it occurred under (the trace's time axis).  This module exports a ring
in two formats:

* **JSONL** — one event per line, schema-validated by
  ``python -m tools.lint_repro --schema`` (and by CI);
* **Chrome ``trace_event`` JSON** — loadable in Perfetto / chrome://
  tracing: one track per node plus MD3 / LLC / memory / NoC tracks,
  instant events for LI/ownership transitions, and flow arrows for
  MD3-mediated transfers (a node-side slice tied to the MD3-side slice).
"""

from __future__ import annotations

import json
from typing import IO, Dict, List, Optional, Sequence, Tuple

from repro.analysis.events import EventRing, ProtocolEvent

#: JSONL trace schema: field -> (required, allowed types).  ``trace``
#: is the serve-layer correlation id (optional — pre-PR-9 logs lack it
#: and must keep validating).
TRACE_FIELDS: Dict[str, Tuple[bool, tuple]] = {
    "seq": (True, (int,)),
    "t": (True, (int,)),
    "kind": (True, (str,)),
    "node": (False, (int, type(None))),
    "line": (False, (int, type(None))),
    "region": (False, (int, type(None))),
    "idx": (False, (int, type(None))),
    "detail": (False, (str,)),
    "trace": (False, (str,)),
}

#: event kinds rendered as Chrome instants (LI / ownership transitions)
INSTANT_KINDS = frozenset({
    "l1.install", "master.claim", "master.relocate", "llc.retrack",
    "region.share", "region.privatize",
})

#: synthetic track ids for non-node actors
MD3_TRACK = 900
LLC_TRACK = 901
MEM_TRACK = 902
NOC_TRACK = 903


def event_record(event: ProtocolEvent) -> Dict[str, object]:
    """One event as the JSONL schema's record shape."""
    record: Dict[str, object] = {
        "seq": event.seq,
        "t": event.t,
        "kind": event.kind,
    }
    if event.node is not None:
        record["node"] = event.node
    if event.line is not None:
        record["line"] = event.line
    if event.region is not None:
        record["region"] = event.region
    if event.idx is not None:
        record["idx"] = event.idx
    if event.detail:
        record["detail"] = event.detail
    return record


def write_jsonl(ring: EventRing, stream: IO[str]) -> int:
    """Write one JSON object per buffered event; returns the count."""
    n = 0
    for event in ring.events():
        stream.write(json.dumps(event_record(event),
                                separators=(",", ":")) + "\n")
        n += 1
    return n


def _track_of(event: ProtocolEvent) -> int:
    kind = event.kind
    if kind.startswith("md3."):
        return MD3_TRACK
    if kind.startswith("llc."):
        return LLC_TRACK
    if kind.startswith("mem."):
        return MEM_TRACK
    if kind == "noc.msg":
        return NOC_TRACK
    if event.node is not None:
        return event.node
    return NOC_TRACK


def chrome_events(ring: EventRing) -> List[Dict[str, object]]:
    """The ``traceEvents`` array of the Chrome ``trace_event`` format.

    Timestamps are event sequence numbers scaled by 2 so each
    1-"microsecond" slice has clearance; the displayed time axis is
    therefore protocol-event order, not cycles.
    """
    out: List[Dict[str, object]] = []
    tracks = {MD3_TRACK: "MD3", LLC_TRACK: "LLC", MEM_TRACK: "memory",
              NOC_TRACK: "NoC"}
    out.append({"ph": "M", "pid": 0, "name": "process_name",
                "args": {"name": "d2m protocol"}})
    flow_id = 0
    body: List[Dict[str, object]] = []
    for event in ring.events():
        tid = _track_of(event)
        if tid < MD3_TRACK:
            tracks.setdefault(tid, f"node {tid}")
        ts = event.seq * 2
        args: Dict[str, object] = {"t": event.t}
        if event.line is not None:
            args["line"] = f"{event.line:#x}"
        if event.region is not None:
            args["region"] = f"{event.region:#x}"
        if event.idx is not None:
            args["idx"] = event.idx
        if event.detail:
            args["detail"] = event.detail
        if event.kind in INSTANT_KINDS:
            body.append({"ph": "i", "pid": 0, "tid": tid, "ts": ts,
                         "s": "t", "name": event.kind, "args": args})
        else:
            body.append({"ph": "X", "pid": 0, "tid": tid, "ts": ts,
                         "dur": 1, "name": event.kind, "args": args})
        # MD3-mediated transfer: tie the requesting node's slice to the
        # MD3-side slice with a flow arrow.
        if tid == MD3_TRACK and event.node is not None:
            flow_id += 1
            tracks.setdefault(event.node, f"node {event.node}")
            body.append({"ph": "X", "pid": 0, "tid": event.node,
                         "ts": ts, "dur": 1, "name": event.kind,
                         "args": args})
            body.append({"ph": "s", "pid": 0, "tid": event.node,
                         "ts": ts, "id": flow_id, "cat": "md3",
                         "name": "md3-transfer"})
            body.append({"ph": "f", "pid": 0, "tid": MD3_TRACK,
                         "ts": ts, "id": flow_id, "cat": "md3",
                         "name": "md3-transfer", "bp": "e"})
    for tid, name in sorted(tracks.items()):
        out.append({"ph": "M", "pid": 0, "tid": tid,
                    "name": "thread_name", "args": {"name": name}})
    out.extend(body)
    return out


def write_chrome(ring: EventRing, stream: IO[str]) -> int:
    """Write the Chrome/Perfetto JSON; returns the event count."""
    json.dump({"traceEvents": chrome_events(ring),
               "displayTimeUnit": "ms"}, stream)
    stream.write("\n")
    return len(ring)


#: the request lifecycle stages the serve layer records spans for
SPAN_STAGES = ("validate", "enqueue", "coalesce-wait", "claim",
               "simulate", "cache-write", "respond")


def chrome_span_events(spans: Sequence[Dict[str, object]]
                       ) -> List[Dict[str, object]]:
    """Serve-layer request spans as a Chrome ``trace_event`` array.

    Each span is a mapping with ``trace`` (correlation id), ``job``,
    ``stage`` (one of :data:`SPAN_STAGES`), ``ts`` (epoch seconds) and
    ``dur_s``; extra keys ride along in ``args``.  One track per stage,
    timestamps rebased to the earliest span so the trace opens at t=0.
    """
    out: List[Dict[str, object]] = [
        {"ph": "M", "pid": 0, "name": "process_name",
         "args": {"name": "repro serve"}},
    ]
    if not spans:
        return out
    stage_tid = {stage: tid for tid, stage in enumerate(SPAN_STAGES)}
    seen_tids: Dict[int, str] = {}
    base = min(float(span["ts"]) for span in spans)  # type: ignore[arg-type]
    for span in spans:
        stage = str(span.get("stage", ""))
        tid = stage_tid.get(stage, len(SPAN_STAGES))
        seen_tids[tid] = stage or "other"
        ts_us = (float(span["ts"]) - base) * 1e6  # type: ignore[arg-type]
        dur_us = max(float(span.get("dur_s", 0.0)) * 1e6, 1.0)  # type: ignore[arg-type]
        args = {key: value for key, value in span.items()
                if key not in ("stage", "ts", "dur_s")}
        out.append({"ph": "X", "pid": 0, "tid": tid,
                    "ts": round(ts_us, 1), "dur": round(dur_us, 1),
                    "name": stage or "span", "cat": "serve",
                    "args": args})
    for tid, name in sorted(seen_tids.items()):
        out.append({"ph": "M", "pid": 0, "tid": tid, "name": "thread_name",
                    "args": {"name": name}})
    return out


def validate_trace_record(record: object) -> Optional[str]:
    """Schema-check one parsed JSONL trace record; None when valid."""
    if not isinstance(record, dict):
        return f"record is {type(record).__name__}, expected object"
    for field, (required, types) in TRACE_FIELDS.items():
        if field not in record:
            if required:
                return f"missing required field {field!r}"
            continue
        value = record[field]
        if not isinstance(value, types) or isinstance(value, bool):
            return (f"field {field!r} has type {type(value).__name__}, "
                    f"expected {'/'.join(t.__name__ for t in types)}")
    unknown = set(record) - set(TRACE_FIELDS)
    if unknown:
        return f"unknown field(s): {', '.join(sorted(unknown))}"
    if record["seq"] < 0 or record["t"] < 0:
        return "seq and t must be non-negative"
    if not record["kind"]:
        return "kind must be non-empty"
    return None
