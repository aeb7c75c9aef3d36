"""Epoch time-series telemetry: phase-resolved interval sampling.

Every other metric the repo records is a whole-run aggregate; this
module captures the *dynamics* — regions warming into their
private/shared classification, MD1/MD2 occupancy ramping, PB spills
clustering in phases — by snapshotting stat deltas every ``epoch``
accesses into compact columnar arrays (plain lists of ints; numpy, when
available, only accelerates post-run analysis such as
:func:`phase_drift`).

A :class:`TimelineSampler` observes one simulation run without
perturbing it: it never touches the machine's stats, LRU state, or
RNGs, so a sampled run produces bit-identical statistics (the same
contract :class:`~repro.obs.telemetry.Telemetry` and the sanitizer
honor).  It is an observer (:mod:`repro.common.observe`) declaring its
``epoch``, which becomes both drivers' chunk length: every ``on_chunk``
boundary *is* an epoch boundary (the trailing one may be partial).  The
batched driver folds its deferred fast-path aggregates in before each
boundary, which is why the two drivers emit identical series.

Epochs are counted over the **whole access stream** (warmup included) so
the warmup ramp is visible; :meth:`on_roi` pins the warmup/ROI
boundary (dashboards draw it, :func:`phase_drift` reports it).  At the
ROI boundary every sampled source reads zero in both drivers — stats,
network, and energy are reset there, and buckets/instruction counters
only accumulate while recording — so re-baselining is a pure zeroing
and stays driver-independent.

The series summary rides inside run records (format v9)::

    {"epochs": N, "epoch_accesses": E, "roi_epoch": K,
     "series": {"instructions": [...], ...}}

A sampled-but-empty timeline is exactly ``{"epochs": 0}`` (matching the
empty-digest ``{"count": 0.0}`` convention); an absent/empty dict means
sampling was off.  :func:`validate_timeline` is the machine-checkable
schema (``tools/lint_repro.py --schema``).
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

try:  # numpy accelerates post-run analysis only; sampling never needs it
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less environments
    _np = None

from repro.common.types import HitLevel

#: default epoch length in accesses (the drivers' default chunk length)
DEFAULT_EPOCH = 4096

#: storage cap: beyond this many epochs adjacent pairs are merged and
#: the effective epoch length doubles (keeps series bounded on any run)
MAX_EPOCHS = 2048

#: every series a non-empty timeline carries, in recording order
TIMELINE_SERIES = (
    "instructions",     # retired instructions per epoch (deterministic IPS)
    "accesses",         # recorded (post-warmup) accesses per epoch
    "l1_hits",          # L1-serviced accesses per epoch
    "late_hits",        # late hits (MSHR coalesced) per epoch
    "l1_misses",        # accesses that left the L1 per epoch
    "md1_hits",         # D2M MD1 tracker hits per epoch
    "md2_hits",         # D2M MD2 tracker hits per epoch
    "md_misses",        # metadata misses (MD3 walks) per epoch
    "pb_spills",        # present-bitmap spills per epoch
    "md_evictions",     # MD3 global evictions per epoch
    "private_misses",   # misses in private-classified regions per epoch
    "noc_hops",         # network hop-weighted message count per epoch
    "md1_occ",          # MD1 valid entries across nodes (instantaneous)
    "md2_occ",          # MD2 valid entries across nodes (instantaneous)
)

#: instantaneous gauges — pair-merging keeps the peak, not the sum
INSTANT_SERIES = ("md1_occ", "md2_occ")

#: optional top-level keys a timeline summary may carry next to the
#: required epochs/epoch_accesses/roi_epoch/series quartet
OPTIONAL_KEYS = ("md1_capacity", "md2_capacity")

#: cumulative stat counters sampled as per-epoch deltas, series -> key
#: (the _KEY_ prefix puts the values under the stats-key registry lint)
_KEY_TIMELINE = {
    "md1_hits": "md.md1_hits",
    "md2_hits": "md.md2_hits",
    "md_misses": "md.misses",
    "pb_spills": "md2.spills",
    "md_evictions": "md3.global_evictions",
    "private_misses": "misses.private_region",
}
_STAT_SOURCES: Tuple[Tuple[str, str], ...] = tuple(_KEY_TIMELINE.items())


class TimelineSampler:
    """Columnar per-epoch series collector for one simulation run.

    The sampler is passive: the driver loop tells it when an epoch
    boundary passes (``on_chunk`` -> :meth:`snapshot`); it reads
    cumulative counters and appends their deltas.  It has no event
    half, so the batched driver's ``fast_path_safe`` gate is untouched
    and fast-path coverage is identical with sampling on or off.
    """

    __slots__ = ("epoch", "on_epoch", "_series", "_epochs", "_merges",
                 "_roi_epoch", "_stats", "_net_counts", "_buckets",
                 "_nodes", "_md1_capacity", "_md2_capacity", "_last")

    def __init__(self, epoch: int = DEFAULT_EPOCH,
                 on_epoch: Optional["TimelineStreamWriter"] = None) -> None:
        self.epoch = max(1, int(epoch))
        #: live per-epoch stream; receives (index, row), closed at finalize
        self.on_epoch = on_epoch
        self._series: Dict[str, List[int]] = {name: []
                                              for name in TIMELINE_SERIES}
        self._epochs = 0
        self._merges = 0  # each merge doubles the effective epoch length
        self._roi_epoch = 0
        self._stats: Optional[object] = None
        self._net_counts: Mapping[Tuple[object, int], int] = {}
        self._buckets: Mapping[Tuple[bool, HitLevel], object] = {}
        self._nodes: Tuple[object, ...] = ()
        self._md1_capacity = 0
        self._md2_capacity = 0
        self._last: Dict[str, int] = {name: 0 for name in TIMELINE_SERIES}

    # ------------------------------------------------------------ lifecycle

    def bind(self, hierarchy: object, result: object) -> None:
        """Grab the cumulative sources the snapshots will delta against."""
        self._stats = hierarchy.stats  # type: ignore[attr-defined]
        self._net_counts = hierarchy.network._counts  # type: ignore[attr-defined]
        self._buckets = result.buckets  # type: ignore[attr-defined]
        protocol = getattr(hierarchy, "protocol", None)
        nodes = getattr(protocol, "nodes", None)
        if nodes:
            self._nodes = tuple(nodes)
            first = self._nodes[0]
            per_md1 = (first.md1i.capacity  # type: ignore[attr-defined]
                       + first.md1d.capacity)  # type: ignore[attr-defined]
            self._md1_capacity = per_md1 * len(self._nodes)
            self._md2_capacity = (first.md2.capacity  # type: ignore[attr-defined]
                                  * len(self._nodes))

    def on_roi(self) -> None:
        """Pin the warmup/ROI boundary (called right after the ROI reset).

        Every cumulative source reads zero at this point in both drivers
        — stats/network were just reset, buckets and instruction
        counters never accumulate during warmup — so re-baselining is an
        unconditional zeroing (no reads, hence driver-independent).
        """
        self._roi_epoch = self._epochs
        self._last = {name: 0 for name in TIMELINE_SERIES}

    def finalize(self) -> None:
        if self.on_epoch is not None:
            self.on_epoch.close()

    # ------------------------------------------------------------ sampling

    def on_chunk(self, instructions: int, accesses: int,
                 streamed: int) -> None:
        del streamed
        self.snapshot(instructions, accesses)

    def snapshot(self, instructions: int, accesses: int) -> None:
        """Record one epoch: deltas of cumulative counters + gauges."""
        last = self._last
        series = self._series
        row: Dict[str, int] = {}

        def delta(name: str, value: int) -> None:
            row[name] = value - last[name]
            last[name] = value

        delta("instructions", instructions)
        delta("accesses", accesses)

        l1 = late = miss = 0
        for (_instr, level), bucket in self._buckets.items():
            count = bucket.count  # type: ignore[attr-defined]
            if level is HitLevel.L1:
                l1 += count
            elif level is HitLevel.LATE:
                late += count
            else:
                miss += count
        delta("l1_hits", l1)
        delta("late_hits", late)
        delta("l1_misses", miss)

        stats = self._stats
        if stats is not None:
            for name, key in _STAT_SOURCES:
                delta(name, int(stats.get(key)))  # type: ignore[attr-defined]
        else:  # unbound (unit tests poking the sampler directly)
            for name, _key in _STAT_SOURCES:
                delta(name, 0)

        hops = 0
        for (_kind, hop), count in self._net_counts.items():
            hops += hop * count
        delta("noc_hops", hops)

        md1 = md2 = 0
        for node in self._nodes:
            md1 += len(node.md1i) + len(node.md1d)  # type: ignore[attr-defined]
            md2 += len(node.md2)  # type: ignore[attr-defined]
        row["md1_occ"] = md1
        row["md2_occ"] = md2

        for name in TIMELINE_SERIES:
            series[name].append(row[name])
        index = self._epochs
        self._epochs += 1
        if self.on_epoch is not None:
            self.on_epoch(index, row)
        if self._epochs > MAX_EPOCHS:
            self._merge_pairs()

    def _merge_pairs(self) -> None:
        """Halve the series by pair-merging; effective epoch doubles."""
        for name, values in self._series.items():
            peak = name in INSTANT_SERIES
            merged: List[int] = []
            for i in range(0, len(values) - 1, 2):
                a, b = values[i], values[i + 1]
                merged.append(max(a, b) if peak else a + b)
            if len(values) % 2:
                merged.append(values[-1])
            self._series[name] = merged
        self._epochs = len(self._series[TIMELINE_SERIES[0]])
        self._roi_epoch //= 2
        self._merges += 1

    # ------------------------------------------------------------ reporting

    @property
    def epoch_accesses(self) -> int:
        """Effective accesses per stored epoch (grows with merges)."""
        return self.epoch * (1 << self._merges)

    def summary(self) -> Dict[str, object]:
        """The JSON-ready timeline that rides inside run records."""
        if self._epochs == 0:
            return {"epochs": 0}
        out: Dict[str, object] = {
            "epochs": self._epochs,
            "epoch_accesses": self.epoch_accesses,
            "roi_epoch": self._roi_epoch,
            "series": {name: list(values)
                       for name, values in self._series.items()},
        }
        if self._md1_capacity:
            out["md1_capacity"] = self._md1_capacity
            out["md2_capacity"] = self._md2_capacity
        return out


class TimelineStreamWriter:
    """Per-epoch JSONL appender for live timeline streaming.

    Sweep workers hand one of these to their sampler as ``on_epoch``;
    each epoch appends one ``{"epoch": i, ...series deltas...}`` line to
    a ``tl-<pid>.jsonl`` file next to the worker's heartbeat, which
    ``repro serve`` tails for ``GET /runs/<id>/timeline`` while the job
    is still running.  Stream failures never kill a run.
    """

    __slots__ = ("path", "_fh")

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: Optional[object] = None

    def __call__(self, index: int, row: Dict[str, int]) -> None:
        try:
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8")
            payload: Dict[str, object] = {"epoch": index}
            payload.update(row)
            self._fh.write(json.dumps(payload) + "\n")  # type: ignore[attr-defined]
            self._fh.flush()  # type: ignore[attr-defined]
        except OSError:
            pass

    def close(self) -> None:
        fh = self._fh
        self._fh = None
        if fh is not None:
            try:
                fh.close()  # type: ignore[attr-defined]
            except OSError:
                pass


# ---------------------------------------------------------------- schema


def validate_timeline(timeline: object) -> List[str]:
    """Schema-check one timeline summary; returns problem strings.

    The contract (enforced by ``tools/lint_repro.py --schema`` on bare
    timelines and on run records' ``timeline`` field): an absent or
    empty dict means sampling was off and is valid; a sampled-but-empty
    timeline is exactly ``{"epochs": 0}``; a non-empty one carries
    ``epochs``/``epoch_accesses``/``roi_epoch`` plus a ``series`` table
    whose members are the known :data:`TIMELINE_SERIES` names, each a
    list of ``epochs`` integers.
    """
    if not isinstance(timeline, Mapping):
        return [f"timeline is {type(timeline).__name__}, not a mapping"]
    if not timeline:
        return []  # sampling off
    problems: List[str] = []
    epochs = timeline.get("epochs")
    if isinstance(epochs, bool) or not isinstance(epochs, int):
        return [f"epochs is {type(epochs).__name__}, not an int"]
    if epochs < 0:
        return [f"epochs is negative ({epochs})"]
    if epochs == 0:
        extras = sorted(set(timeline) - {"epochs"})
        if extras:
            problems.append("empty timeline carries extra keys: "
                            + ", ".join(extras))
        return problems
    allowed = {"epochs", "epoch_accesses", "roi_epoch", "series"}
    allowed.update(OPTIONAL_KEYS)
    unknown = sorted(set(timeline) - allowed)
    if unknown:
        problems.append(f"unknown timeline keys: {', '.join(unknown)}")
    for key in ("epoch_accesses", "roi_epoch"):
        value = timeline.get(key)
        if isinstance(value, bool) or not isinstance(value, int):
            problems.append(f"{key} is {type(value).__name__}, not an int")
        elif value < 0:
            problems.append(f"{key} is negative ({value})")
    roi = timeline.get("roi_epoch")
    if isinstance(roi, int) and not isinstance(roi, bool) and roi > epochs:
        problems.append(f"roi_epoch {roi} beyond epochs {epochs}")
    series = timeline.get("series")
    if not isinstance(series, Mapping):
        problems.append(f"series is {type(series).__name__}, not a mapping")
        return problems
    unknown_series = sorted(set(series) - set(TIMELINE_SERIES))
    if unknown_series:
        problems.append("unknown series: " + ", ".join(unknown_series))
    for name in ("instructions", "accesses"):
        if name not in series:
            problems.append(f"missing series: {name}")
    for name, values in sorted(series.items()):
        if not isinstance(values, Sequence) or isinstance(values, str):
            problems.append(f"series[{name!r}] is not a list")
            continue
        if len(values) != epochs:
            problems.append(f"series[{name!r}] has {len(values)} values, "
                            f"expected {epochs}")
        for value in values:
            if isinstance(value, bool) or not isinstance(value, int):
                problems.append(f"series[{name!r}] carries non-int "
                                f"{value!r}")
                break
    return problems


# ---------------------------------------------------------------- analysis


def phase_drift(baseline: Sequence[int], candidate: Sequence[int]) -> float:
    """Phase-shape divergence between two aligned epoch series in [0, 1].

    The Kolmogorov–Smirnov distance between the two series' normalized
    cumulative mass curves: 0.0 for identical *shapes* (including equal
    totals spread identically), approaching 1.0 when the mass sits in
    disjoint phases.  Totals cancel out — this is exactly the "same
    totals, different shape" detector the comparison sentinel needs.
    Series are truncated to their common length; empty or zero-mass
    series drift 0.0 against anything.
    """
    n = min(len(baseline), len(candidate))
    if n == 0:
        return 0.0
    base = baseline[:n]
    cand = candidate[:n]
    total_b = float(sum(base))
    total_c = float(sum(cand))
    if total_b <= 0.0 or total_c <= 0.0:
        return 0.0
    if _np is not None:
        cdf_b = _np.cumsum(_np.asarray(base, dtype=float)) / total_b
        cdf_c = _np.cumsum(_np.asarray(cand, dtype=float)) / total_c
        return float(_np.abs(cdf_b - cdf_c).max())
    drift = 0.0
    cum_b = cum_c = 0.0
    for vb, vc in zip(base, cand):
        cum_b += vb
        cum_c += vc
        gap = abs(cum_b / total_b - cum_c / total_c)
        if gap > drift:
            drift = gap
    return drift


def rebucket_timeline(timeline: Mapping[str, object],
                      epoch_accesses: int) -> Dict[str, object]:
    """Coarsen a timeline so each epoch covers >= ``epoch_accesses``.

    Display-side only (the stored series are untouched): adjacent
    epochs are merged — sums for delta series, peaks for the
    instantaneous gauges — until the effective epoch length reaches the
    request.  A timeline already at or beyond the target (or empty)
    comes back as a plain copy.
    """
    out: Dict[str, object] = dict(timeline)
    epochs = out.get("epochs")
    if not isinstance(epochs, int) or epochs <= 0:
        return out
    current = int(out.get("epoch_accesses", 0) or 1)
    series = out.get("series")
    if current >= epoch_accesses or not isinstance(series, Mapping):
        return out
    merged: Dict[str, List[int]] = {name: list(values)  # type: ignore[arg-type]
                                    for name, values in series.items()}
    roi = int(out.get("roi_epoch", 0) or 0)
    while current < epoch_accesses and epochs > 1:
        for name, values in merged.items():
            peak = name in INSTANT_SERIES
            folded: List[int] = []
            for i in range(0, len(values) - 1, 2):
                a, b = values[i], values[i + 1]
                folded.append(max(a, b) if peak else a + b)
            if len(values) % 2:
                folded.append(values[-1])
            merged[name] = folded
        epochs = len(next(iter(merged.values()), []))
        roi //= 2
        current *= 2
    out["epochs"] = epochs
    out["epoch_accesses"] = current
    out["roi_epoch"] = roi
    out["series"] = merged
    return out


#: unicode ramp used by the terminal sparkline view
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def _sparkline(values: Sequence[int], width: int = 60) -> str:
    if not values:
        return ""
    if len(values) > width:  # downsample by striding (display only)
        step = len(values) / width
        values = [values[int(i * step)] for i in range(width)]
    top = max(values)
    if top <= 0:
        return _SPARK_BLOCKS[0] * len(values)
    scale = len(_SPARK_BLOCKS) - 1
    return "".join(_SPARK_BLOCKS[(v * scale) // top] for v in values)


def timeline_text(timeline: Mapping[str, object],
                  names: Sequence[str] = ("instructions", "l1_misses",
                                          "md1_occ", "md2_occ",
                                          "noc_hops")) -> str:
    """Compact terminal rendering: one sparkline per selected series."""
    epochs = timeline.get("epochs")
    if not isinstance(epochs, int) or epochs <= 0:
        return "timeline: no epochs sampled"
    series = timeline.get("series")
    if not isinstance(series, Mapping):
        return "timeline: malformed (no series)"
    lines = [f"timeline: {epochs} epochs x "
             f"{timeline.get('epoch_accesses', '?')} accesses, "
             f"ROI at epoch {timeline.get('roi_epoch', 0)}"]
    label_width = max((len(n) for n in names if n in series), default=0)
    for name in names:
        values = series.get(name)
        if not isinstance(values, Sequence):
            continue
        peak = max(values) if values else 0
        lines.append(f"  {name:<{label_width}} {_sparkline(values)}"
                     f"  (peak {peak})")
    return "\n".join(lines)


__all__ = [
    "DEFAULT_EPOCH", "MAX_EPOCHS", "TIMELINE_SERIES", "INSTANT_SERIES",
    "TimelineSampler", "TimelineStreamWriter", "validate_timeline",
    "phase_drift", "rebucket_timeline", "timeline_text",
]
