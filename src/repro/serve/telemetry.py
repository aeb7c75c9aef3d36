"""Request-lifecycle spans for ``repro serve``.

Every ``POST /runs`` mints a *trace id* that follows the request through
the daemon: validate → enqueue → (coalesce-wait) → claim → simulate →
cache-write → respond.  Each completed stage is recorded as a
:class:`Span` appended to its job's JSONL file under ``queue/spans/``
(:func:`append_span`).  That file is the one span store: the daemon's
``GET /runs/<id>/trace`` and the offline ``repro trace --job`` both
read it through :func:`load_spans`, so traces survive the daemon.

Export to Chrome ``trace_event`` JSON goes through
:func:`repro.obs.trace.chrome_span_events` — the same machinery the
protocol tracer uses, so both trace families load in the same viewer.
"""

from __future__ import annotations

import json
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.obs.trace import SPAN_STAGES

#: keys every serialized span carries; meta keys must not collide
SPAN_CORE_KEYS = ("trace", "job", "stage", "ts", "dur_s")


def new_trace_id() -> str:
    """A fresh correlation id for one submitted request."""
    return uuid.uuid4().hex[:16]


@dataclass
class Span:
    """One completed stage of one request's lifecycle."""

    trace: str
    job: str
    stage: str
    ts: float                      # epoch seconds at stage start
    dur_s: float
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.stage not in SPAN_STAGES:
            raise ValueError(f"unknown span stage {self.stage!r}")

    def to_json(self) -> Dict[str, object]:
        """Flat mapping (meta inlined) — the JSONL / Chrome-args shape."""
        record: Dict[str, object] = {
            "trace": self.trace, "job": self.job, "stage": self.stage,
            "ts": round(self.ts, 6), "dur_s": round(self.dur_s, 6),
        }
        for key, value in self.meta.items():
            if key not in SPAN_CORE_KEYS:
                record[key] = value
        return record


def append_span(directory: Path, span: Span) -> None:
    """Append ``span`` to ``<directory>/<job>.jsonl`` (one flat JSON
    object per line)."""
    try:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{span.job}.jsonl"
        with path.open("a", encoding="utf-8") as stream:
            stream.write(json.dumps(span.to_json(), separators=(",", ":"))
                         + "\n")
    except OSError:
        pass  # telemetry must never fail the request it observes


def load_spans(directory: Path, job_id: str) -> List[Dict[str, object]]:
    """Parse one job's span JSONL, ordered by start time (absent/corrupt
    lines are skipped)."""
    path = Path(directory) / f"{job_id}.jsonl"
    spans: List[Dict[str, object]] = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return spans
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if (isinstance(record, dict) and "stage" in record
                and isinstance(record.get("ts"), (int, float))):
            spans.append(record)
    spans.sort(key=lambda s: (s["ts"], str(s["stage"])))  # type: ignore[arg-type, return-value]
    return spans


class StageTimer:
    """Tiny helper: ``with StageTimer() as t: ...; t.dur_s``."""

    __slots__ = ("started", "dur_s", "ts")

    def __enter__(self) -> "StageTimer":
        self.ts = time.time()
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.dur_s = time.perf_counter() - self.started
