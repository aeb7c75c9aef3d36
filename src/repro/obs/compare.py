"""Differential observability: diff two runs or sweep matrices.

Every run emits telemetry (histogram digests in its run record); this
module *consumes* it.  It structurally diffs two comparable payloads —

* two run records (every scalar paper metric, per-percentile
  histogram-digest drift, and epoch-timeline phase drift), or
* two sweep matrices (``{workload: {config: record}}``, e.g. two
  ``.repro_cache/runs`` directories),

— into a severity-classified :class:`ComparisonReport`.  Severities
order ``ok < note < warn < regression``; only ``regression`` gates (the
CLI's ``repro compare`` exits 3, see :meth:`ComparisonReport.exit_code`).

Classification is threshold-driven (:class:`Thresholds`): relative
scalar-metric drift with an absolute floor, and ratio-based percentile
drift for the log2 histogram digests (whose buckets quantize at ~2x, so
one-bucket noise stays sub-warning).

``informational=True`` record comparisons (the dashboard's side-by-side
config views) are informational only: the two cells are *supposed* to
differ, so every severity is capped at ``note``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: severity levels, weakest to strongest; only REGRESSION gates exit codes
OK = "ok"
NOTE = "note"
WARN = "warn"
REGRESSION = "regression"

_SEVERITY_ORDER = {OK: 0, NOTE: 1, WARN: 2, REGRESSION: 3}

#: digest fields whose drift is compared per histogram
_DIGEST_DRIFT_FIELDS = ("p50", "p90", "p99", "mean")

#: the exit status `repro compare` returns on regression
REGRESSION_EXIT = 3


class CompareError(ValueError):
    """The two payloads cannot be compared (unknown or mismatched kinds)."""


@dataclass(frozen=True)
class Thresholds:
    """Regression-classification knobs (relative unless stated).

    ``metric_*`` apply to run-record scalar drift (both directions — a reproduction shifting *either* way
    is drift), ``hist_*`` to symmetric percentile-ratio drift of the log2
    digests (``max/min - 1``; one bucket is ~1.0), ``phase_*`` to the
    Kolmogorov-Smirnov distance between two epoch time-series' normalized
    cumulative mass curves (0 = identical shape, 1 = disjoint phases).
    ``abs_floor`` is the absolute delta below which a change is never
    classified at all.
    """

    metric_fail: float = 0.20
    metric_warn: float = 0.05
    hist_fail: float = 3.0
    hist_warn: float = 1.5
    abs_floor: float = 1e-9
    phase_fail: float = 0.25
    phase_warn: float = 0.10


@dataclass
class Delta:
    """One compared quantity: baseline vs candidate plus its severity."""

    key: str
    baseline: Optional[float]
    candidate: Optional[float]
    severity: str = OK
    note: str = ""

    @property
    def rel_delta(self) -> Optional[float]:
        """(candidate - baseline) / |baseline|; None when undefined."""
        if self.baseline is None or self.candidate is None:
            return None
        if self.baseline == 0:
            return 0.0 if self.candidate == 0 else None
        return (self.candidate - self.baseline) / abs(self.baseline)

    def to_json(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "severity": self.severity,
            "note": self.note,
        }


@dataclass
class ComparisonReport:
    """Every delta of one comparison, plus free-form context notes."""

    kind: str
    baseline_label: str = "baseline"
    candidate_label: str = "candidate"
    deltas: List[Delta] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, delta: Delta) -> None:
        self.deltas.append(delta)

    def note(self, message: str) -> None:
        self.notes.append(message)

    @property
    def worst(self) -> str:
        severity = OK
        for delta in self.deltas:
            if _SEVERITY_ORDER[delta.severity] > _SEVERITY_ORDER[severity]:
                severity = delta.severity
        return severity

    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.severity == REGRESSION]

    def counts(self) -> Dict[str, int]:
        out = {OK: 0, NOTE: 0, WARN: 0, REGRESSION: 0}
        for delta in self.deltas:
            out[delta.severity] += 1
        return out

    def exit_code(self) -> int:
        """0 when clean, :data:`REGRESSION_EXIT` on any regression."""
        return REGRESSION_EXIT if self.regressions() else 0

    def summary_line(self) -> str:
        counts = self.counts()
        parts = [f"{n} {severity}" for severity, n in counts.items() if n]
        body = ", ".join(parts) if parts else "nothing compared"
        verdict = "REGRESSION" if counts[REGRESSION] else "OK"
        return (f"compare [{self.kind}] {self.baseline_label} -> "
                f"{self.candidate_label}: {verdict} ({body})")

    def to_json(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "baseline": self.baseline_label,
            "candidate": self.candidate_label,
            "worst": self.worst,
            "counts": self.counts(),
            "notes": list(self.notes),
            "deltas": [d.to_json() for d in self.deltas],
        }


def _cap(severity: str, cap: str) -> str:
    if _SEVERITY_ORDER[severity] > _SEVERITY_ORDER[cap]:
        return cap
    return severity


# -------------------------------------------------------------- record diffs


def _metric_severity(base: float, cand: float,
                     thresholds: Thresholds) -> Tuple[str, str]:
    delta = cand - base
    if abs(delta) <= thresholds.abs_floor:
        return OK, ""
    if base == 0:
        return WARN, "metric appeared (baseline is zero)"
    rel = abs(delta) / abs(base)
    if rel >= thresholds.metric_fail:
        return REGRESSION, f"drifted {delta / abs(base):+.1%}"
    if rel >= thresholds.metric_warn:
        return WARN, f"drifted {delta / abs(base):+.1%}"
    return OK, ""


def _drift_ratio(base: float, cand: float) -> Optional[float]:
    """Symmetric ratio drift ``max/min - 1``; None when one side is 0."""
    if base == cand:
        return 0.0
    if base <= 0 or cand <= 0:
        return None
    lo, hi = sorted((base, cand))
    return hi / lo - 1.0


def compare_hist_digests(baseline: Mapping[str, Mapping[str, float]],
                         candidate: Mapping[str, Mapping[str, float]],
                         thresholds: Thresholds = Thresholds(),
                         cap: str = REGRESSION) -> List[Delta]:
    """Per-percentile drift deltas between two digest maps.

    Digest values come from log2 buckets, so drift is measured as a
    symmetric ratio (one bucket of quantization noise is ~1.0) and the
    default thresholds only trip on multi-bucket shifts.
    """
    deltas: List[Delta] = []
    for name in sorted(set(baseline) | set(candidate)):
        base = baseline.get(name)
        cand = candidate.get(name)
        if base is None or cand is None:
            side = "candidate" if base is None else "baseline"
            present = cand if base is None else base
            count = float(present.get("count", 0.0)) if present else 0.0
            deltas.append(Delta(
                f"hist.{name}.count",
                None if base is None else count,
                None if cand is None else count,
                _cap(WARN, cap), f"histogram only in {side}"))
            continue
        base_count = float(base.get("count", 0.0))
        cand_count = float(cand.get("count", 0.0))
        if base_count != cand_count:
            severity, why = _metric_severity(base_count, cand_count,
                                             thresholds)
            deltas.append(Delta(f"hist.{name}.count", base_count, cand_count,
                                _cap(_cap(severity, WARN), cap), why))
        for fieldname in _DIGEST_DRIFT_FIELDS:
            b = float(base.get(fieldname, 0.0))
            c = float(cand.get(fieldname, 0.0))
            if b == c:
                continue
            drift = _drift_ratio(b, c)
            if drift is None:
                severity = WARN
                why = "percentile collapsed to/from zero"
            elif drift >= thresholds.hist_fail:
                severity, why = REGRESSION, f"drifted {drift:.1f}x buckets"
            elif drift >= thresholds.hist_warn:
                severity, why = WARN, f"drifted {drift:.1f}x buckets"
            else:
                severity, why = OK, ""
            deltas.append(Delta(f"hist.{name}.{fieldname}", b, c,
                                _cap(severity, cap), why))
    return deltas


def compare_timelines(baseline: Mapping[str, object],
                      candidate: Mapping[str, object],
                      thresholds: Thresholds = Thresholds(),
                      cap: str = REGRESSION
                      ) -> Tuple[List[Delta], List[str]]:
    """Phase-drift deltas between two epoch time-series summaries.

    Scalar metrics catch *how much* changed; this catches *when*.  Each
    series shared by both timelines is reduced to its normalized
    cumulative mass curve, and the Kolmogorov-Smirnov distance between
    the two curves becomes the drift measure: two runs with identical
    totals but different phase shapes (work migrated between epochs)
    score high, identical shapes score exactly 0.  Each delta carries the
    per-series *sums* as baseline/candidate values, so a "same totals,
    different phase" pair is visible at a glance.

    Drift is only measured when both sides sampled with the same epoch
    length; otherwise the curves are not aligned and a note says so.
    Returns ``(deltas, notes)``.
    """
    from repro.obs.timeline import phase_drift

    deltas: List[Delta] = []
    notes: List[str] = []
    base_on = int(baseline.get("epochs", 0) or 0) > 0  # type: ignore[arg-type]
    cand_on = int(candidate.get("epochs", 0) or 0) > 0  # type: ignore[arg-type]
    if not base_on and not cand_on:
        return deltas, notes
    if base_on != cand_on:
        side = "candidate" if cand_on else "baseline"
        deltas.append(Delta(
            "timeline.epochs",
            float(baseline.get("epochs", 0) or 0) if baseline else None,  # type: ignore[arg-type]
            float(candidate.get("epochs", 0) or 0) if candidate else None,  # type: ignore[arg-type]
            _cap(NOTE, cap), f"timeline only in {side}"))
        return deltas, notes
    base_ea = int(baseline.get("epoch_accesses", 0) or 0)  # type: ignore[arg-type]
    cand_ea = int(candidate.get("epoch_accesses", 0) or 0)  # type: ignore[arg-type]
    if base_ea != cand_ea:
        notes.append(f"timeline epoch lengths differ ({base_ea} vs "
                     f"{cand_ea} accesses); phase drift not measured")
        return deltas, notes
    if baseline.get("roi_epoch") != candidate.get("roi_epoch"):
        notes.append(f"warmup/ROI boundary moved (epoch "
                     f"{baseline.get('roi_epoch')} -> "
                     f"{candidate.get('roi_epoch')})")
    if baseline.get("epochs") != candidate.get("epochs"):
        notes.append(f"timeline lengths differ ({baseline.get('epochs')} vs "
                     f"{candidate.get('epochs')} epochs); phase drift is "
                     "measured over the common prefix")
    base_series = baseline.get("series", {})
    cand_series = candidate.get("series", {})
    if not isinstance(base_series, Mapping) \
            or not isinstance(cand_series, Mapping):
        return deltas, notes
    for name in sorted(set(base_series) & set(cand_series)):
        b = [float(v) for v in base_series[name]]
        c = [float(v) for v in cand_series[name]]
        drift = phase_drift(b, c)
        if drift == 0.0:
            continue
        if drift >= thresholds.phase_fail:
            severity = REGRESSION
        elif drift >= thresholds.phase_warn:
            severity = WARN
        else:
            severity = OK
        deltas.append(Delta(
            f"timeline.{name}.phase_drift", sum(b), sum(c),
            _cap(severity, cap),
            f"phase drift {drift:.2f} (KS distance)" if severity != OK
            else ""))
    return deltas, notes


def _as_record_dict(record: object) -> Dict[str, object]:
    if hasattr(record, "to_json"):
        return record.to_json()  # type: ignore[attr-defined, no-any-return]
    if isinstance(record, Mapping):
        return dict(record)
    raise CompareError(f"not a run record: {type(record).__name__}")


def compare_records(baseline: object, candidate: object,
                    thresholds: Thresholds = Thresholds(),
                    informational: bool = False,
                    baseline_label: str = "baseline",
                    candidate_label: str = "candidate",
                    key_prefix: str = "") -> ComparisonReport:
    """Diff two run records: scalar paper metrics + histogram digests.

    ``informational=True`` caps every severity at ``note`` — for
    side-by-side views of cells that are *expected* to differ (e.g. the
    dashboard's Base-2L vs D2M-NS-R comparison).
    """
    from repro.experiments.records import SCALAR_METRICS

    base = _as_record_dict(baseline)
    cand = _as_record_dict(candidate)
    report = ComparisonReport("record", baseline_label, candidate_label)
    cap = NOTE if informational else REGRESSION
    base_cell = (base.get("workload"), base.get("config"))
    cand_cell = (cand.get("workload"), cand.get("config"))
    if base_cell != cand_cell:
        report.note(f"comparing different cells: {base_cell[0]} on "
                    f"{base_cell[1]} vs {cand_cell[0]} on {cand_cell[1]}")
    if base.get("instructions") != cand.get("instructions"):
        report.note(f"instruction budgets differ "
                    f"({base.get('instructions')} vs "
                    f"{cand.get('instructions')}); count-like metrics will "
                    "drift")
    for name in SCALAR_METRICS:
        b = float(base.get(name, 0.0))  # type: ignore[arg-type]
        c = float(cand.get(name, 0.0))  # type: ignore[arg-type]
        severity, why = _metric_severity(b, c, thresholds)
        report.add(Delta(key_prefix + name, b, c, _cap(severity, cap), why))
    base_events = base.get("events", {})
    cand_events = cand.get("events", {})
    if isinstance(base_events, Mapping) and isinstance(cand_events, Mapping):
        for name in sorted(set(base_events) | set(cand_events)):
            b = float(base_events.get(name, 0.0))  # type: ignore[arg-type]
            c = float(cand_events.get(name, 0.0))  # type: ignore[arg-type]
            severity, why = _metric_severity(b, c, thresholds)
            # Protocol event counters are forensic detail, not gating
            # paper metrics: cap at warn.
            report.add(Delta(f"{key_prefix}events.{name}", b, c,
                             _cap(_cap(severity, WARN), cap), why))
    base_hists = base.get("hists", {})
    cand_hists = cand.get("hists", {})
    if isinstance(base_hists, Mapping) and isinstance(cand_hists, Mapping):
        for delta in compare_hist_digests(base_hists, cand_hists, thresholds,
                                          cap=cap):
            delta.key = key_prefix + delta.key
            report.add(delta)
    base_tl = base.get("timeline", {})
    cand_tl = cand.get("timeline", {})
    if isinstance(base_tl, Mapping) and isinstance(cand_tl, Mapping):
        tl_deltas, tl_notes = compare_timelines(base_tl, cand_tl, thresholds,
                                                cap=cap)
        for delta in tl_deltas:
            delta.key = key_prefix + delta.key
            report.add(delta)
        for message in tl_notes:
            report.note(message)
    return report


def compare_matrices(baseline: Mapping[str, Mapping[str, object]],
                     candidate: Mapping[str, Mapping[str, object]],
                     thresholds: Thresholds = Thresholds(),
                     baseline_label: str = "baseline",
                     candidate_label: str = "candidate") -> ComparisonReport:
    """Diff two sweep matrices cell by cell (``matrix[workload][config]``)."""
    report = ComparisonReport("matrix", baseline_label, candidate_label)
    base_keys = {(wl, cfg) for wl, row in baseline.items() for cfg in row}
    cand_keys = {(wl, cfg) for wl, row in candidate.items() for cfg in row}
    for wl, cfg in sorted(base_keys ^ cand_keys):
        side = "candidate" if (wl, cfg) not in base_keys else "baseline"
        report.add(Delta(f"{wl}/{cfg}", None, None, WARN,
                         f"cell only in {side}"))
    for wl, cfg in sorted(base_keys & cand_keys):
        cell = compare_records(baseline[wl][cfg], candidate[wl][cfg],
                               thresholds, key_prefix=f"{wl}/{cfg}:")
        report.deltas.extend(cell.deltas)
        report.notes.extend(f"{wl}/{cfg}: {note}" for note in cell.notes)
    return report


# ------------------------------------------------------------ load & dispatch


def kind_of(payload: object) -> str:
    """``record`` | ``matrix`` for a parsed payload."""
    if isinstance(payload, Mapping):
        if {"workload", "config", "instructions"} <= set(payload):
            return "record"
        if payload and all(
                isinstance(row, Mapping)
                and row and all(isinstance(rec, Mapping)
                                and "workload" in rec for rec in row.values())
                for row in payload.values()):
            return "matrix"
    raise CompareError("payload is neither a run record nor a sweep "
                       "matrix")


def load_payload(path: Path) -> object:
    """Parse one comparable payload from a file or a run-record directory.

    A directory (e.g. ``.repro_cache/runs``) loads every ``*.json`` run
    record inside into a ``{workload: {config: record}}`` matrix.
    """
    if path.is_dir():
        matrix: Dict[str, Dict[str, object]] = {}
        for child in sorted(path.glob("*.json")):
            try:
                record = json.loads(child.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue  # torn/corrupt entries are cache misses, not errors
            if isinstance(record, Mapping) and "workload" in record \
                    and "config" in record:
                matrix.setdefault(str(record["workload"]), {})[
                    str(record["config"])] = record
        if not matrix:
            raise CompareError(f"{path}: no run records found")
        return matrix
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CompareError(f"{path}: unreadable: {exc}") from exc
    except ValueError as exc:
        raise CompareError(f"{path}: not JSON: {exc}") from exc


def compare_payloads(baseline: object, candidate: object,
                     thresholds: Thresholds = Thresholds(),
                     baseline_label: str = "baseline",
                     candidate_label: str = "candidate") -> ComparisonReport:
    """Dispatch on payload kind; both sides must be the same kind."""
    base_kind = kind_of(baseline)
    cand_kind = kind_of(candidate)
    if base_kind != cand_kind:
        raise CompareError(f"cannot compare a {base_kind} against a "
                           f"{cand_kind}")
    if base_kind == "record":
        return compare_records(baseline, candidate, thresholds,
                               baseline_label=baseline_label,
                               candidate_label=candidate_label)
    return compare_matrices(baseline, candidate, thresholds,  # type: ignore[arg-type]
                            baseline_label, candidate_label)


def thresholds_from_percent(metric_fail_pct: float = 20.0,
                            abs_floor: float = 1e-9) -> Thresholds:
    """CLI-facing constructor: the fail threshold in percent, warn at a
    quarter of it."""
    metric_fail = max(metric_fail_pct, 0.0) / 100.0
    return Thresholds(metric_fail=metric_fail, metric_warn=metric_fail / 4.0,
                      abs_floor=abs_floor)


def matrix_to_json(matrix: Mapping[str, Mapping[str, object]]
                   ) -> Dict[str, Dict[str, Dict[str, object]]]:
    """A live ``get_matrix`` result as a comparable/serializable payload."""
    return {wl: {cfg: _as_record_dict(record)
                 for cfg, record in row.items()}
            for wl, row in matrix.items()}


__all__: Sequence[str] = [
    "OK", "NOTE", "WARN", "REGRESSION", "REGRESSION_EXIT",
    "CompareError", "ComparisonReport", "Delta", "Thresholds",
    "compare_hist_digests", "compare_matrices",
    "compare_payloads", "compare_records", "compare_timelines",
    "kind_of", "load_payload", "matrix_to_json", "thresholds_from_percent",
]
