"""Request validation and payload construction for the serving API.

Pure functions, separated from the HTTP plumbing in
:mod:`repro.serve.app` so the submission contract and every response
body are unit-testable without a socket.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.common.params import SystemConfig, all_configs
from repro.experiments.runner import run_cache_key
from repro.obs.progress import read_heartbeats
from repro.serve.queue import Job, JobCell
from repro.sim.runner import extras_of, instruction_budget, warmup_budget
from repro.workloads.registry import get_spec, workload_names

#: hard ceilings keeping one request from wedging the daemon
MAX_CELLS_PER_JOB = 4096
MAX_NODES = 64

#: fields a ``POST /runs`` body may carry (anything else is a 400:
#: typos must not silently become defaults)
SUBMIT_FIELDS = frozenset((
    "workloads", "configs", "instructions", "seed", "warmup", "nodes",
    "timeline",
))


class BadRequest(ValueError):
    """A submission the daemon refuses; str(exc) is the client message."""


def _configs_by_name(nodes: int) -> Dict[str, SystemConfig]:
    return {config.name.lower(): config for config in all_configs(nodes)}


def parse_submission(payload: object) -> Tuple[Dict[str, object],
                                               List[SystemConfig]]:
    """Validate a ``POST /runs`` body against the registries.

    Returns ``(request, configs)`` where ``request`` is the normalized
    job request document (every default resolved, so the job file alone
    reproduces the runs) and ``configs`` are the resolved
    :class:`SystemConfig` objects in request order.  Raises
    :class:`BadRequest` with a client-facing message otherwise.
    """
    if not isinstance(payload, dict):
        raise BadRequest("body must be a JSON object")
    unknown = sorted(set(payload) - SUBMIT_FIELDS)
    if unknown:
        raise BadRequest(f"unknown field(s) {unknown}; allowed: "
                         f"{sorted(SUBMIT_FIELDS)}")

    def _int_field(name: str, default: int, minimum: int) -> int:
        value = payload.get(name, default)
        if isinstance(value, bool) or not isinstance(value, int):
            raise BadRequest(f"{name} must be an integer")
        if value < minimum:
            raise BadRequest(f"{name} must be >= {minimum}")
        return value

    nodes = _int_field("nodes", 8, 1)
    if nodes > MAX_NODES:
        raise BadRequest(f"nodes must be <= {MAX_NODES}")
    # epoch length for --timeline interval sampling (0 = off)
    timeline = _int_field("timeline", 0, 0)
    instructions = _int_field("instructions", 0, 0) or instruction_budget()
    seed = _int_field("seed", 1, 0)
    warmup = payload.get("warmup")
    if warmup is None:
        warmup = warmup_budget(instructions)
    elif isinstance(warmup, bool) or not isinstance(warmup, int) or warmup < 0:
        raise BadRequest("warmup must be a non-negative integer or null")

    raw_workloads = payload.get("workloads")
    if raw_workloads is None:
        workloads = workload_names()
    elif (isinstance(raw_workloads, list) and raw_workloads
          and all(isinstance(w, str) for w in raw_workloads)):
        workloads = list(dict.fromkeys(raw_workloads))
        for name in workloads:
            try:
                get_spec(name)
            except KeyError as exc:
                raise BadRequest(str(exc)) from None
    else:
        raise BadRequest("workloads must be a non-empty list of names "
                         "(or omitted for all)")

    by_name = _configs_by_name(nodes)
    raw_configs = payload.get("configs")
    if raw_configs is None:
        configs = list(by_name.values())
    elif (isinstance(raw_configs, list) and raw_configs
          and all(isinstance(c, str) for c in raw_configs)):
        configs = []
        for name in dict.fromkeys(raw_configs):
            config = by_name.get(name.lower())
            if config is None:
                raise BadRequest(f"unknown system {name!r}; pick from "
                                 f"{sorted(by_name)}")
            configs.append(config)
    else:
        raise BadRequest("configs must be a non-empty list of system names "
                         "(or omitted for all)")

    if len(workloads) * len(configs) > MAX_CELLS_PER_JOB:
        raise BadRequest(f"matrix too large: {len(workloads)} x "
                         f"{len(configs)} cells exceeds "
                         f"{MAX_CELLS_PER_JOB}")

    request: Dict[str, object] = {
        "workloads": workloads,
        "configs": [config.name for config in configs],
        "instructions": instructions,
        "seed": seed,
        "warmup": warmup,
        "nodes": nodes,
        "timeline": timeline,
    }
    return request, configs


def build_cells(request: Dict[str, object],
                configs: List[SystemConfig]) -> List[JobCell]:
    """The job's cells, each addressed by its run cache key."""
    instructions = int(request["instructions"])  # type: ignore[arg-type]
    seed = int(request["seed"])  # type: ignore[arg-type]
    warmup = int(request["warmup"])  # type: ignore[arg-type]
    return [JobCell(workload=workload, config=config.name,
                    key=run_cache_key(workload, config.name, instructions,
                                      seed, warmup, nodes=config.nodes))
            for workload in request["workloads"]  # type: ignore[union-attr]
            for config in configs]


def job_extras(request: Dict[str, object]) -> FrozenSet[str]:
    """The extras every run of the job asks for — histogram digests,
    plus a timeline when the request names an epoch: the set
    :func:`~repro.experiments.runner.plan_matrix` builds for the job's
    lookup, so the job claims its cells with what it will accept."""
    return extras_of(hist=True, timeline=request.get("timeline", 0))


def job_payload(job: Job, heartbeat_dir: Optional[Path] = None,
                progress_path: Optional[Path] = None,
                recent: int = 10) -> dict:
    """The ``job`` response body; with live progress when dirs given."""
    payload = job.to_json()
    if heartbeat_dir is not None or progress_path is not None:
        beats = (read_heartbeats(str(heartbeat_dir))
                 if heartbeat_dir is not None else [])
        payload["progress"] = {
            "heartbeats": beats,
            "recent": (tail_jsonl(progress_path, recent)
                       if progress_path is not None else []),
        }
    return payload


def tail_jsonl(path: Path, limit: int) -> List[dict]:
    """The last ``limit`` parsable records of a JSONL file."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return []
    out: List[dict] = []
    for line in reversed(lines):
        if len(out) >= limit:
            break
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn tail line mid-rotation
        if isinstance(record, dict):
            out.append(record)
    out.reverse()
    return out


def timeline_payload(job: Job, runs_dir: Path,
                     heartbeat_dir: Optional[Path] = None,
                     live_limit: int = 64) -> dict:
    """The ``GET /runs/<id>/timeline`` response body.

    Finished cells serve the epoch time-series straight out of their
    cached run records; while the job is still simulating, the workers'
    live ``tl-*.jsonl`` epoch streams (appended next to the heartbeats)
    are tailed instead, so a poller watches phases develop in flight.
    Cells simulated without ``--timeline`` simply carry no series.
    """
    cells: List[dict] = []
    for cell in job.cells:
        entry: Dict[str, object] = {
            "workload": cell.workload, "config": cell.config,
            "key": cell.key, "state": cell.state,
        }
        try:
            record = json.loads((runs_dir / f"{cell.key}.json")
                                .read_text(encoding="utf-8"))
        except (OSError, ValueError):
            record = None
        if isinstance(record, dict):
            timeline = record.get("timeline", {})
            if isinstance(timeline, dict) and timeline:
                entry["timeline"] = timeline
        cells.append(entry)
    live: List[dict] = []
    if heartbeat_dir is not None:
        try:
            streams = sorted(Path(heartbeat_dir).glob("tl-*.jsonl"))
        except OSError:
            streams = []
        for stream in streams:
            epochs = tail_jsonl(stream, live_limit)
            if epochs:
                live.append({"stream": stream.stem, "epochs": epochs})
    return {"job": job.id, "state": job.state,
            "timeline_epoch": int(job.request.get("timeline", 0) or 0),  # type: ignore[arg-type, union-attr]
            "cells": cells, "live": live}


def record_response(runs_dir: Path, key: str,
                    if_none_match: str) -> Tuple[int, str, bytes]:
    """``GET /records/<key>`` → ``(status, etag, body)``.

    The cache key is content-addressing, so it doubles as a strong
    ETag: a client that already holds the record revalidates with
    ``If-None-Match`` and gets an empty ``304``.
    """
    if not key.isalnum():
        return 400, "", b""
    etag = f'"{key}"'
    path = runs_dir / f"{key}.json"
    if not path.is_file():
        return 404, "", b""
    if _etag_matches(if_none_match, etag):
        # The record is immutable under its key, so a match never
        # needs the body read at all.
        return 304, etag, b""
    try:
        body = path.read_bytes()
    except OSError:
        return 404, "", b""
    return 200, etag, body


def _etag_matches(if_none_match: str, etag: str) -> bool:
    if not if_none_match:
        return False
    if if_none_match.strip() == "*":
        return True
    candidates = [tag.strip() for tag in if_none_match.split(",")]
    # weak validators (W/"...") compare equal for GET revalidation
    return any(tag == etag or tag == f"W/{etag}" for tag in candidates)


def load_all_records(runs_dir: Path) -> List[dict]:
    """Every readable run record currently in the cache."""
    records: List[dict] = []
    try:
        paths = sorted(runs_dir.glob("*.json"))
    except OSError:
        return records
    for path in paths:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue  # torn or foreign file: not a record
        if isinstance(data, dict) and "workload" in data and "config" in data:
            records.append(data)
    return records
