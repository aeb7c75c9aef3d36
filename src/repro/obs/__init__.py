"""Observability: structured logs, traces, histograms, sweep progress.

The telemetry subsystem layered over the simulator's observer seam
(:mod:`repro.common.observe`) and the core protocol's event stream.  All
of it is pay-for-what-you-use — a run that asks for none of it makes no
observer call in the driver loop:

* :mod:`repro.obs.runlog` — structured JSONL run logging
  (``REPRO_LOG`` / ``repro --log-json``);
* :mod:`repro.obs.trace` — protocol trace export to JSONL and Chrome
  ``trace_event`` (Perfetto) formats (``repro run --view trace``);
* :mod:`repro.obs.histogram` / :mod:`repro.obs.telemetry` — log2-bucket
  latency, residency, hop-count, occupancy, and region-dwell histograms
  whose percentile digests land in run records (``repro run --view
  hist``);
* :mod:`repro.obs.timeline` / :mod:`repro.obs.profile` — per-epoch
  time series and slow-tail wall-time attribution;
* :mod:`repro.obs.progress` — worker heartbeats and the live sweep
  progress line plus machine-readable ``progress.jsonl``;
* :mod:`repro.obs.compare` / :mod:`repro.obs.render` — the consumption
  half: structural diffing of runs and sweep matrices into severity-
  classified reports (``repro compare``, exit 3 on regression) and the
  zero-dependency static HTML dashboard (``repro dashboard``).

:func:`run_observers` maps one run's settings to its observers.  See
docs/OBSERVABILITY.md for schemas and overhead numbers.
"""

import os
from typing import Any, Dict, Optional

from repro.obs.compare import ComparisonReport, Delta, Thresholds
from repro.obs.histogram import Histogram, HistogramSet
from repro.obs.profile import AttributionProfiler
from repro.obs.progress import Heartbeat, SweepProgress
from repro.obs.render import render_dashboard
from repro.obs.runlog import RunLogger
from repro.obs.telemetry import Telemetry
from repro.obs.timeline import TimelineSampler, TimelineStreamWriter


def run_observers(telemetry: bool = False, profile: bool = False,
                  timeline: int = 0,
                  heartbeat: Optional[Heartbeat] = None) -> Dict[str, Any]:
    """The observers one run's settings ask for.

    Keyed by the run-outcome field each one fills (``telemetry``,
    ``profile``, ``timeline``), plus ``heartbeat`` when given.  Under a
    heartbeat the timeline also streams each epoch to a
    ``tl-<pid>.jsonl`` next to the heartbeat file, which ``repro serve``
    tails for live timelines.
    """
    observers: Dict[str, Any] = {}
    if telemetry:
        observers["telemetry"] = Telemetry()
    if profile:
        observers["profile"] = AttributionProfiler()
    if timeline:
        stream = None
        if heartbeat is not None:
            stream = TimelineStreamWriter(os.path.join(
                os.path.dirname(heartbeat.path), f"tl-{os.getpid()}.jsonl"))
        observers["timeline"] = TimelineSampler(epoch=timeline,
                                                on_epoch=stream)
    if heartbeat is not None:
        observers["heartbeat"] = heartbeat
    return observers


__all__ = [
    "AttributionProfiler",
    "ComparisonReport",
    "Delta",
    "Heartbeat",
    "Histogram",
    "HistogramSet",
    "RunLogger",
    "SweepProgress",
    "Telemetry",
    "Thresholds",
    "TimelineSampler",
    "render_dashboard",
    "run_observers",
]
