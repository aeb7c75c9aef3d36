"""Response-payload schemas of the serving API (documented contract).

Every JSON body the daemon emits belongs to one of five kinds, and a
sixth covers the bare epoch time-series documents the CLI writes:

* ``health`` — ``GET /healthz``: ``ok``, ``version``, per-state job
  counts, queue depth, per-state drain-lane counts (idle / running /
  stalled), uptime, the daemon's simulation counter, and the number of
  in-flight coalesced cells;
* ``job`` — ``POST /runs`` and ``GET /runs/<id>``: the persistent job
  document (id, state, correlation ``trace`` id, request echo, per-cell
  states) plus, on GET, a live ``progress`` block;
* ``record`` — ``GET /records/<key>``: a cached
  :class:`~repro.experiments.records.RunRecord` exactly as stored in
  ``.repro_cache/runs/<key>.json``, histogram digests, slow-tail
  profile and timeline included;
* ``timeline`` — ``GET /runs/<id>/timeline``: per-cell epoch
  time-series (finished cells out of their cached records, running
  cells as tailed live ``tl-*.jsonl`` epoch streams);
* ``error`` — any non-2xx/304 response: ``{"error": "<message>"}``;
* ``series`` — a bare timeline (``repro run --view timeline --format
  json``), as checked by :func:`repro.obs.timeline.validate_timeline`.

:func:`validate_payload` is the machine-checkable form of the contract
(hand-rolled, no jsonschema dependency); ``tools/lint_repro.py
--schema`` runs it over captured responses and run caches in CI, and
the daemon's tests run it over live ones.  ``docs/SERVING.md`` is the
human-readable mirror — keep the two in sync.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.records import SCALAR_METRICS
from repro.obs.histogram import validate_digest
from repro.obs.profile import validate_profile
from repro.obs.timeline import validate_timeline

#: job lifecycle states, in order
JOB_STATES = ("pending", "running", "done", "failed")

#: per-cell outcomes: not yet simulated / served from the cache /
#: simulated by this job / simulated by another job this one coalesced
#: onto / failed
CELL_STATES = ("pending", "cached", "simulated", "coalesced", "failed")

#: payload kinds understood by :func:`validate_payload`
KINDS = ("health", "job", "record", "timeline", "error", "series")

#: drain-lane states reported by health's ``lanes`` block and the
#: ``repro_worker_lanes`` metric
LANE_STATES = ("idle", "running", "stalled")


def _require(payload: Dict[str, object], name: str, types,
             problems: List[str], kind: str) -> object:
    if name not in payload:
        problems.append(f"{kind}: missing required field {name!r}")
        return None
    value = payload[name]
    if not isinstance(value, types):
        problems.append(f"{kind}: field {name!r} is "
                        f"{type(value).__name__}, expected "
                        f"{getattr(types, '__name__', types)}")
        return None
    return value


def _validate_health(payload: Dict[str, object]) -> List[str]:
    problems: List[str] = []
    _require(payload, "ok", bool, problems, "health")
    _require(payload, "version", str, problems, "health")
    _require(payload, "simulations", int, problems, "health")
    _require(payload, "inflight", int, problems, "health")
    _require(payload, "queue_depth", int, problems, "health")
    _require(payload, "uptime_s", (int, float), problems, "health")
    jobs = _require(payload, "jobs", dict, problems, "health")
    if isinstance(jobs, dict):
        for state in JOB_STATES:
            if not isinstance(jobs.get(state), int):
                problems.append(f"health: jobs[{state!r}] missing or "
                                f"not an int")
    lanes = _require(payload, "lanes", dict, problems, "health")
    if isinstance(lanes, dict):
        for state in LANE_STATES:
            if not isinstance(lanes.get(state), int):
                problems.append(f"health: lanes[{state!r}] missing or "
                                f"not an int")
    return problems


def _validate_cell(index: int, cell: object) -> List[str]:
    if not isinstance(cell, dict):
        return [f"job: cells[{index}] is not an object"]
    problems: List[str] = []
    for name in ("workload", "config", "key"):
        if not isinstance(cell.get(name), str) or not cell.get(name):
            problems.append(f"job: cells[{index}].{name} missing or empty")
    state = cell.get("state")
    if state not in CELL_STATES:
        problems.append(f"job: cells[{index}].state {state!r} not in "
                        f"{CELL_STATES}")
    return problems


def _validate_job(payload: Dict[str, object]) -> List[str]:
    problems: List[str] = []
    _require(payload, "id", str, problems, "job")
    state = _require(payload, "state", str, problems, "job")
    if isinstance(state, str) and state not in JOB_STATES:
        problems.append(f"job: state {state!r} not in {JOB_STATES}")
    _require(payload, "created_ts", (int, float), problems, "job")
    _require(payload, "error", str, problems, "job")
    # correlation id; "" on jobs submitted by pre-tracing daemons
    if "trace" in payload and not isinstance(payload["trace"], str):
        problems.append("job: trace must be a string when present")
    request = _require(payload, "request", dict, problems, "job")
    if isinstance(request, dict):
        for name in ("instructions", "seed", "warmup", "nodes"):
            if not isinstance(request.get(name), int):
                problems.append(f"job: request.{name} missing or not an int")
        for name in ("workloads", "configs"):
            value = request.get(name)
            if (not isinstance(value, list) or not value
                    or not all(isinstance(v, str) for v in value)):
                problems.append(f"job: request.{name} must be a non-empty "
                                f"list of strings")
    cells = _require(payload, "cells", list, problems, "job")
    if isinstance(cells, list):
        if not cells:
            problems.append("job: cells is empty")
        for index, cell in enumerate(cells):
            problems.extend(_validate_cell(index, cell))
    for name in ("done_cells", "total_cells"):
        _require(payload, name, int, problems, "job")
    progress = payload.get("progress")
    if progress is not None:
        if not isinstance(progress, dict):
            problems.append("job: progress is not an object")
        else:
            for name in ("heartbeats", "recent"):
                value = progress.get(name)
                if not isinstance(value, list) or not all(
                        isinstance(v, dict) for v in value):
                    problems.append(f"job: progress.{name} must be a list "
                                    f"of objects")
    return problems


def _validate_record(payload: Dict[str, object]) -> List[str]:
    problems: List[str] = []
    for name in ("workload", "category", "config"):
        _require(payload, name, str, problems, "record")
    _require(payload, "instructions", int, problems, "record")
    for name in SCALAR_METRICS:
        value = payload.get(name)
        if not isinstance(value, (int, float)):
            problems.append(f"record: metric {name!r} missing or not a "
                            f"number")
    _require(payload, "events", dict, problems, "record")
    hists = _require(payload, "hists", dict, problems, "record")
    for name, digest in sorted((hists or {}).items()):
        problems.extend(f"record: hists[{name!r}]: {problem}"
                        for problem in validate_digest(digest))
    # 'profile' arrived with format v8 and 'timeline' with v9; an absent
    # field is as valid as the empty (feature-off) one
    problems.extend(f"record: profile: {problem}"
                    for problem in validate_profile(payload.get("profile",
                                                                {})))
    problems.extend(f"record: timeline: {problem}"
                    for problem in validate_timeline(payload.get("timeline",
                                                                 {})))
    return problems


def _validate_timeline_payload(payload: Dict[str, object]) -> List[str]:
    problems: List[str] = []
    _require(payload, "job", str, problems, "timeline")
    state = _require(payload, "state", str, problems, "timeline")
    if isinstance(state, str) and state not in JOB_STATES:
        problems.append(f"timeline: state {state!r} not in {JOB_STATES}")
    _require(payload, "timeline_epoch", int, problems, "timeline")
    cells = _require(payload, "cells", list, problems, "timeline")
    if isinstance(cells, list):
        for index, cell in enumerate(cells):
            if not isinstance(cell, dict):
                problems.append(f"timeline: cells[{index}] is not an object")
                continue
            for name in ("workload", "config", "key"):
                if not isinstance(cell.get(name), str) or not cell.get(name):
                    problems.append(f"timeline: cells[{index}].{name} "
                                    f"missing or empty")
            if cell.get("state") not in CELL_STATES:
                problems.append(f"timeline: cells[{index}].state "
                                f"{cell.get('state')!r} not in {CELL_STATES}")
            if "timeline" in cell:
                problems.extend(
                    f"timeline: cells[{index}].timeline: {problem}"
                    for problem in validate_timeline(cell["timeline"]))
    live = _require(payload, "live", list, problems, "timeline")
    if isinstance(live, list):
        for index, stream in enumerate(live):
            if (not isinstance(stream, dict)
                    or not isinstance(stream.get("stream"), str)
                    or not isinstance(stream.get("epochs"), list)
                    or not all(isinstance(row, dict)
                               for row in stream["epochs"])):
                problems.append(f"timeline: live[{index}] must be "
                                f"{{stream, epochs: [objects]}}")
    return problems


def _validate_error(payload: Dict[str, object]) -> List[str]:
    problems: List[str] = []
    message = _require(payload, "error", str, problems, "error")
    if isinstance(message, str) and not message:
        problems.append("error: empty error message")
    return problems


_VALIDATORS = {
    "health": _validate_health,
    "job": _validate_job,
    "record": _validate_record,
    "timeline": _validate_timeline_payload,
    "error": _validate_error,
    "series": validate_timeline,
}


def validate_payload(kind: str, payload: object) -> List[str]:
    """Problems with ``payload`` as a ``kind`` response ([] = valid)."""
    if kind not in _VALIDATORS:
        return [f"unknown payload kind {kind!r}; pick from {KINDS}"]
    if not isinstance(payload, dict):
        return [f"{kind}: payload is {type(payload).__name__}, not an "
                f"object"]
    return _VALIDATORS[kind](payload)


def classify_payload(payload: object) -> Optional[str]:
    """Best-effort kind of a payload (shape sniffing for the CLI lint)."""
    if not isinstance(payload, dict):
        return None
    if "error" in payload and len(payload) == 1:
        return "error"
    if "cells" in payload and "live" in payload:
        return "timeline"
    if "cells" in payload and "request" in payload:
        return "job"
    if "ok" in payload and "jobs" in payload:
        return "health"
    if "workload" in payload and "hists" in payload:
        return "record"
    if "epochs" in payload:
        return "series"
    return None
