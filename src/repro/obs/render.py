"""Static HTML dashboard rendering (inline SVG, zero dependencies).

``repro dashboard`` turns the observability layer's *data* — run-record
histogram digests, the sweep matrix, and :mod:`repro.obs.compare`
reports — into one self-contained HTML file: no JavaScript, no external
assets, every chart an inline SVG.  The file can be archived as a CI
artifact and opened years later with nothing but a browser.

Sections:

* **sweep heatmap** — workloads x systems, each cell the speedup over
  Base-2L (the paper's Figure 7 shape), on a diverging blue/red ramp
  around 1.0;
* **histogram digests** — per-level latency, MSHR residency, MD1/MD2
  occupancy, and NoC hop distributions of one focus cell, as log-scale
  percentile bars (p50/p90/p99/max out of the log2 digests);
* **slow-tail attribution** — when the focus record carries a
  ``--profile-attrib`` digest, ranked per-transition-class slow-tail
  seconds bars (:func:`repro.obs.profile.profile_ranking`);
* **phase timeline** — when the focus record carries a ``--timeline``
  epoch series, per-epoch polyline sparklines (instructions, L1
  hits/misses, MD1/MD2 occupancy, NoC hops/PB spills), each series
  normalized to its own peak, with the warmup/ROI boundary marked;
* **comparison views** — side-by-side percentile bars plus a
  severity-classified delta table for any :class:`ComparisonReport`
  (e.g. config vs config).

Colors are role-driven CSS custom properties with a selected dark mode;
severity is never conveyed by color alone (the severity word is always
printed).
"""

from __future__ import annotations

import html
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.compare import NOTE, OK, REGRESSION, WARN, ComparisonReport
from repro.obs.profile import profile_ranking

#: digest fields drawn as bars, nearest first
_BAR_FIELDS = ("p50", "p90", "p99", "max")

#: histogram families grouped into dashboard panels, in display order
_HIST_PANELS: Tuple[Tuple[str, str], ...] = (
    ("latency.", "Access latency by service level (cycles)"),
    ("mshr.", "MSHR residency (cycles)"),
    ("md1.", "MD1 occupancy (%)"),
    ("md2.", "MD2 occupancy (%)"),
    ("noc.", "NoC hop distribution (hops)"),
    ("dwell.", "Region dwell time per classification (accesses)"),
)

_CSS = """
:root { color-scheme: light; }
body {
  margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
  font: 14px/1.5 system-ui, sans-serif;
  background: var(--surface-1); color: var(--text-primary);
  --surface-1: #fcfcfb; --surface-2: #f0efec;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --grid: #d8d7d2;
  --series-1: #2a78d6; --series-2: #eb6834;
  --diverge-lo: #e34948; --diverge-mid: #f0efec; --diverge-hi: #2a78d6;
  --status-good: #008300; --status-warn: #eda100;
  --status-bad: #e34948; --status-note: #52514e;
}
@media (prefers-color-scheme: dark) {
  :root { color-scheme: dark; }
  body {
    --surface-1: #1a1a19; --surface-2: #383835;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --grid: #45443f;
    --series-1: #3987e5; --series-2: #d95926;
    --diverge-lo: #e66767; --diverge-mid: #383835; --diverge-hi: #3987e5;
    --status-good: #3fa53f; --status-warn: #c98500;
    --status-bad: #e66767; --status-note: #c3c2b7;
  }
}
h1 { font-size: 1.4rem; margin-bottom: 0.2rem; }
h2 { font-size: 1.1rem; margin-top: 2rem; border-bottom: 1px solid var(--grid);
     padding-bottom: 0.3rem; }
h3 { font-size: 0.95rem; margin: 1rem 0 0.3rem; }
p.meta, p.note { color: var(--text-secondary); margin-top: 0.2rem; }
svg text { font: 11px system-ui, sans-serif; fill: var(--text-primary); }
svg text.dim { fill: var(--text-secondary); }
svg .grid { stroke: var(--grid); stroke-width: 1; }
table.deltas { border-collapse: collapse; margin-top: 0.5rem; }
table.deltas th, table.deltas td {
  text-align: right; padding: 0.2rem 0.7rem;
  border-bottom: 1px solid var(--grid);
}
table.deltas th:first-child, table.deltas td:first-child { text-align: left; }
td.sev { text-transform: uppercase; font-size: 0.75rem; font-weight: 600; }
td.sev.regression { color: var(--status-bad); }
td.sev.warn { color: var(--status-warn); }
td.sev.note { color: var(--status-note); }
td.sev.ok { color: var(--status-good); }
.legend { color: var(--text-secondary); font-size: 0.85rem; }
.legend .swatch { display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin: 0 0.3rem 0 0.9rem; }
"""


def esc(text: object) -> str:
    return html.escape(str(text), quote=True)


def _rget(record: object, name: str, default: object = 0.0) -> object:
    """Field access over RunRecord objects and record dicts alike."""
    if isinstance(record, Mapping):
        return record.get(name, default)
    return getattr(record, name, default)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 100:
        return f"{value:.0f}"
    if abs(value) >= 1:
        return f"{value:.2f}"
    return f"{value:.4f}"


# ------------------------------------------------------------------ color


def _hex_to_rgb(color: str) -> Tuple[int, int, int]:
    color = color.lstrip("#")
    return int(color[0:2], 16), int(color[2:4], 16), int(color[4:6], 16)


def _mix(a: str, b: str, t: float) -> str:
    """Linear blend of two hex colors, t in [0, 1]."""
    t = min(max(t, 0.0), 1.0)
    ra, ga, ba = _hex_to_rgb(a)
    rb, gb, bb = _hex_to_rgb(b)
    return "#%02x%02x%02x" % (round(ra + (rb - ra) * t),
                              round(ga + (gb - ga) * t),
                              round(ba + (bb - ba) * t))

#: diverging poles/midpoint (light-mode values; dark mode keeps the light
#: cell fills — they are data ink, labelled with the value in every cell)
_DIVERGE_LO = "#e34948"
_DIVERGE_MID = "#f0efec"
_DIVERGE_HI = "#2a78d6"


def speedup_color(value: float, lo: float = 0.85, hi: float = 1.3) -> str:
    """Diverging fill around 1.0: red below, neutral at, blue above."""
    if value >= 1.0:
        span = max(hi - 1.0, 1e-9)
        return _mix(_DIVERGE_MID, _DIVERGE_HI, (value - 1.0) / span)
    span = max(1.0 - lo, 1e-9)
    return _mix(_DIVERGE_MID, _DIVERGE_LO, (1.0 - value) / span)


# ---------------------------------------------------------------- heatmap


def svg_heatmap(workloads: Sequence[str], configs: Sequence[str],
                values: Mapping[Tuple[str, str], Optional[float]],
                baseline_config: str) -> str:
    """Workloads x configs speedup grid with per-cell value labels."""
    gutter, header = 110, 24
    cell_w, cell_h, gap = 78, 24, 2
    width = gutter + len(configs) * (cell_w + gap)
    height = header + len(workloads) * (cell_h + gap)
    parts: List[str] = [
        f'<svg role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" '
        f'aria-label="speedup over {esc(baseline_config)}">']
    for col, config in enumerate(configs):
        x = gutter + col * (cell_w + gap) + cell_w / 2
        parts.append(f'<text x="{x:.0f}" y="{header - 8}" '
                     f'text-anchor="middle">{esc(config)}</text>')
    for row, workload in enumerate(workloads):
        y = header + row * (cell_h + gap)
        parts.append(f'<text x="{gutter - 8}" y="{y + cell_h / 2 + 4:.0f}" '
                     f'text-anchor="end">{esc(workload)}</text>')
        for col, config in enumerate(configs):
            x = gutter + col * (cell_w + gap)
            value = values.get((workload, config))
            if value is None:
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{cell_w}" '
                    f'height="{cell_h}" rx="3" fill="var(--surface-2)"/>')
                continue
            fill = speedup_color(value)
            dark_text = value >= 0.93 and value <= 1.12
            ink = "#0b0b0b" if dark_text else "#ffffff"
            label = f"{value:.2f}x"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_w}" height="{cell_h}" '
                f'rx="3" fill="{fill}">'
                f'<title>{esc(workload)} on {esc(config)}: {label} vs '
                f'{esc(baseline_config)}</title></rect>')
            parts.append(f'<text x="{x + cell_w / 2}" '
                         f'y="{y + cell_h / 2 + 4:.0f}" text-anchor="middle" '
                         f'fill="{ink}" style="fill:{ink}">{label}</text>')
    parts.append("</svg>")
    return "".join(parts)


def speedup_matrix(matrix: Mapping[str, Mapping[str, object]],
                   baseline_config: str
                   ) -> Dict[Tuple[str, str], Optional[float]]:
    """Per-cell ``baseline cycles / config cycles`` (Figure-7 speedups)."""
    out: Dict[Tuple[str, str], Optional[float]] = {}
    for workload, row in matrix.items():
        base = row.get(baseline_config)
        base_cycles = float(_rget(base, "cycles", 0.0)) if base else 0.0  # type: ignore[arg-type]
        for config, record in row.items():
            cycles = float(_rget(record, "cycles", 0.0))  # type: ignore[arg-type]
            if base_cycles > 0 and cycles > 0:
                out[(workload, config)] = base_cycles / cycles
            else:
                out[(workload, config)] = None
    return out


# ----------------------------------------------------------- digest charts


def _log_pos(value: float, max_value: float, width: float) -> float:
    if value <= 0 or max_value <= 0:
        return 0.0
    return width * math.log2(1 + value) / math.log2(1 + max_value)


def svg_digest_bars(name: str, digest: Mapping[str, float],
                    max_value: float, width: int = 560) -> str:
    """One histogram digest as log-scale p50/p90/p99/max bars."""
    gutter, bar_h, gap, pad = 50, 14, 4, 90
    rows = [(f, float(digest.get(f, 0.0))) for f in _BAR_FIELDS]
    height = len(rows) * (bar_h + gap) + 6
    plot_w = width - gutter - pad
    count = digest.get("count", 0.0)
    mean = digest.get("mean", 0.0)
    parts = [
        f'<svg role="img" width="{width}" height="{height + 18}" '
        f'viewBox="0 0 {width} {height + 18}" aria-label="{esc(name)}">',
        f'<line class="grid" x1="{gutter}" y1="0" x2="{gutter}" '
        f'y2="{height}"/>',
    ]
    for index, (label, value) in enumerate(rows):
        y = index * (bar_h + gap)
        w = max(_log_pos(value, max_value, plot_w), 1.0 if value else 0.0)
        parts.append(f'<text class="dim" x="{gutter - 6}" '
                     f'y="{y + bar_h - 3}" text-anchor="end">'
                     f'{esc(label)}</text>')
        if value:
            parts.append(
                f'<rect x="{gutter}" y="{y}" width="{w:.1f}" '
                f'height="{bar_h}" rx="3" fill="var(--series-1)">'
                f'<title>{esc(name)} {esc(label)} = {_fmt(value)}</title>'
                f'</rect>')
        parts.append(f'<text x="{gutter + w + 6:.1f}" y="{y + bar_h - 3}">'
                     f'{_fmt(value)}</text>')
    parts.append(f'<text class="dim" x="{gutter}" y="{height + 13}">'
                 f'count {_fmt(float(count))}, mean {_fmt(float(mean))} '
                 f'(log scale)</text>')
    parts.append("</svg>")
    return "".join(parts)


def digest_panels(hists: Mapping[str, Mapping[str, float]]) -> str:
    """Every dashboard histogram panel present in a record's digests."""
    sections: List[str] = []
    for prefix, title in _HIST_PANELS:
        members = {name: digest for name, digest in sorted(hists.items())
                   if name.startswith(prefix) and digest.get("count", 0)}
        if not members:
            continue
        max_value = max(float(d.get("max", 0.0)) for d in members.values())
        charts = []
        for name, digest in members.items():
            charts.append(f"<h3>{esc(name)}</h3>"
                          + svg_digest_bars(name, digest, max_value))
        sections.append(f"<h2>{esc(title)}</h2>" + "".join(charts))
    return "".join(sections)


# ------------------------------------------------- slow-tail attribution


def svg_profile_bars(rows: Sequence[Tuple[str, float, int]],
                     width: int = 560) -> str:
    """Ranked per-transition-class slow-tail seconds as linear bars."""
    gutter, bar_h, gap, pad = 170, 14, 4, 110
    max_value = max((seconds for _, seconds, _ in rows), default=0.0)
    plot_w = width - gutter - pad
    height = len(rows) * (bar_h + gap) + 6
    parts = [
        f'<svg role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" '
        f'aria-label="slow-tail attribution">',
        f'<line class="grid" x1="{gutter}" y1="0" x2="{gutter}" '
        f'y2="{height}"/>',
    ]
    for index, (tid, seconds, count) in enumerate(rows):
        y = index * (bar_h + gap)
        frac = seconds / max_value if max_value > 0 else 0.0
        w = max(plot_w * frac, 1.0 if seconds else 0.0)
        parts.append(f'<text class="dim" x="{gutter - 6}" '
                     f'y="{y + bar_h - 3}" text-anchor="end">'
                     f'{esc(tid)}</text>')
        if seconds:
            parts.append(
                f'<rect x="{gutter}" y="{y}" width="{w:.1f}" '
                f'height="{bar_h}" rx="3" fill="var(--series-2)">'
                f'<title>{esc(tid)}: {seconds:.4f}s over {count} '
                f'fallback accesses</title></rect>')
        parts.append(f'<text x="{gutter + w + 6:.1f}" y="{y + bar_h - 3}">'
                     f'{seconds:.4f}s ({count}x)</text>')
    parts.append("</svg>")
    return "".join(parts)


def profile_panel(profile: Mapping[str, object], limit: int = 16) -> str:
    """The slow-tail attribution section for one record's profile digest.

    Empty string when the record carries no profile (runs without
    ``--profile-attrib``) — the dashboard simply omits the section.
    """
    if not isinstance(profile, Mapping) or not profile:
        return ""
    rows = profile_ranking(dict(profile))
    parts = [
        "<h2>Slow-tail attribution (--profile-attrib)</h2>",
        "<p class=\"note\">wall "
        f"{esc(_fmt(float(profile.get('wall_s', 0.0))))}s = fast-path "  # type: ignore[arg-type]
        f"{esc(_fmt(float(profile.get('fast_s', 0.0))))}s + slow-tail "  # type: ignore[arg-type]
        f"{esc(_fmt(float(profile.get('slow_s', 0.0))))}s over "  # type: ignore[arg-type]
        f"{esc(profile.get('slow_accesses', 0))} fallback accesses "
        f"({esc(profile.get('chunks', 0))} chunks); slow-tail seconds "
        "attributed to verify-spec transition classes, most expensive "
        "first.</p>",
    ]
    if rows:
        hidden = len(rows) - limit
        parts.append(svg_profile_bars(rows[:limit]))
        if hidden > 0:
            parts.append(f"<p class=\"note\">…and {hidden} more "
                         f"class(es) below the display limit.</p>")
    else:
        parts.append("<p class=\"note\">no slow-tail accesses were "
                     "observed (the fast path covered the run).</p>")
    return "".join(parts)


# ---------------------------------------------------------------- timelines

#: timeline series grouped into dashboard panels (at most two series per
#: panel so the two role colors suffice), in display order
_TIMELINE_PANELS: Tuple[Tuple[Tuple[str, ...], str], ...] = (
    (("instructions",), "Instructions retired per epoch (IPS shape)"),
    (("l1_hits", "l1_misses"), "L1 hits vs misses per epoch"),
    (("md1_occ", "md2_occ"), "MD1/MD2 occupancy (entries, sampled)"),
    (("noc_hops", "pb_spills"), "NoC hops and PB spills per epoch"),
)

#: per-panel series colors (role-driven custom properties, like the
#: comparison views)
_TIMELINE_COLORS = ("var(--series-1)", "var(--series-2)")


def svg_timeline(panel: Sequence[Tuple[str, Sequence[float]]],
                 roi_epoch: int, width: int = 560,
                 height: int = 90) -> str:
    """Up to two epoch series as polylines on one shared time axis.

    Each series is normalized to its *own* peak (panel members can differ
    by orders of magnitude; the peak is printed in the legend), so the
    chart shows shape over time — the phase structure — rather than
    absolute magnitude.  A dashed vertical rule marks the warmup-to-ROI
    boundary epoch when it falls inside the plotted range.
    """
    pad = 6
    plot_h = height - 2 * pad
    epochs = max((len(values) for _, values in panel), default=0)
    if epochs < 2:
        return ""
    step = (width - 2 * pad) / (epochs - 1)
    parts = [
        f'<svg role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" aria-label="epoch timeline">',
        f'<line class="grid" x1="{pad}" y1="{height - pad}" '
        f'x2="{width - pad}" y2="{height - pad}"/>',
    ]
    if 0 < roi_epoch < epochs:
        x = pad + roi_epoch * step
        parts.append(
            f'<line x1="{x:.1f}" y1="{pad}" x2="{x:.1f}" '
            f'y2="{height - pad}" stroke="var(--text-secondary)" '
            f'stroke-dasharray="4 3"><title>warmup-to-ROI boundary '
            f'(epoch {roi_epoch})</title></line>')
    for (name, values), color in zip(panel, _TIMELINE_COLORS):
        peak = max(values, default=0.0)
        points = []
        for index, value in enumerate(values):
            x = pad + index * step
            frac = value / peak if peak > 0 else 0.0
            y = pad + plot_h * (1.0 - frac)
            points.append(f"{x:.1f},{y:.1f}")
        parts.append(
            f'<polyline points="{" ".join(points)}" fill="none" '
            f'stroke="{color}" stroke-width="1.5">'
            f'<title>{esc(name)} per epoch (peak {_fmt(peak)})</title>'
            f'</polyline>')
    parts.append("</svg>")
    return "".join(parts)


def timeline_panels(timeline: Mapping[str, object]) -> str:
    """The phase-resolved timeline section for one record.

    Empty string when the record carries no timeline (runs without
    ``--timeline``); a one-line note when it was sampled but the run
    finished before two epochs elapsed.
    """
    if not isinstance(timeline, Mapping) or not timeline:
        return ""
    epochs = int(timeline.get("epochs", 0))  # type: ignore[arg-type]
    parts = ["<h2>Phase timeline (--timeline)</h2>"]
    if epochs < 2:
        parts.append("<p class=\"note\">the run finished before two "
                     "epochs elapsed; nothing to draw.</p>")
        return "".join(parts)
    epoch_accesses = int(timeline.get("epoch_accesses", 0))  # type: ignore[arg-type]
    roi_epoch = int(timeline.get("roi_epoch", 0))  # type: ignore[arg-type]
    series = timeline.get("series", {})
    if not isinstance(series, Mapping):
        series = {}
    parts.append(
        f"<p class=\"note\">{epochs} epochs of "
        f"{esc(_fmt(float(epoch_accesses)))} accesses each; every series "
        "is normalized to its own peak, and the dashed rule marks the "
        f"warmup-to-ROI boundary (epoch {roi_epoch}).</p>")
    for names, title in _TIMELINE_PANELS:
        panel = []
        for name in names:
            values = series.get(name)
            if isinstance(values, Sequence) and len(values) >= 2:
                panel.append((name, [float(v) for v in values]))
        if not panel:
            continue
        chart = svg_timeline(panel, roi_epoch)
        if not chart:
            continue
        legend = "".join(
            f'<span class="swatch" style="background:{color}"></span>'
            f'{esc(name)} (peak {esc(_fmt(max(values, default=0.0)))})'
            for (name, values), color in zip(panel, _TIMELINE_COLORS))
        parts.append(f"<h3>{esc(title)}</h3>"
                     f"<p class=\"legend\">{legend}</p>" + chart)
    return "".join(parts)


def timeline_page(timeline: Mapping[str, object],
                  title: str = "repro timeline") -> str:
    """A standalone HTML page holding just the timeline panels.

    ``repro run --view timeline --format html`` writes one of these for
    a single record, without requiring a full sweep for the dashboard.
    """
    body = timeline_panels(timeline) or ("<p class=\"note\">the record "
                                         "carries no epoch series.</p>")
    return ("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
            "<meta charset=\"utf-8\">\n"
            "<meta name=\"viewport\" "
            "content=\"width=device-width, initial-scale=1\">\n"
            f"<title>{esc(title)}</title>\n<style>{_CSS}</style>\n"
            f"</head>\n<body>\n<h1>{esc(title)}</h1>\n{body}\n"
            "</body>\n</html>\n")


# ------------------------------------------------------------- comparisons


def svg_pair_bars(rows: Sequence[Tuple[str, float, float]],
                  baseline_label: str, candidate_label: str,
                  width: int = 560) -> str:
    """Grouped baseline/candidate bars on one shared log scale."""
    gutter, bar_h, gap, pad = 170, 11, 10, 90
    max_value = max((max(b, c) for _, b, c in rows), default=0.0)
    plot_w = width - gutter - pad
    height = len(rows) * (2 * bar_h + gap) + 6
    parts = [
        f'<svg role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" aria-label="baseline vs '
        f'candidate">',
        f'<line class="grid" x1="{gutter}" y1="0" x2="{gutter}" '
        f'y2="{height}"/>',
    ]
    for index, (label, base, cand) in enumerate(rows):
        y = index * (2 * bar_h + gap)
        parts.append(f'<text class="dim" x="{gutter - 6}" '
                     f'y="{y + bar_h + 3}" text-anchor="end">'
                     f'{esc(label)}</text>')
        for offset, (value, series, who) in enumerate((
                (base, "var(--series-1)", baseline_label),
                (cand, "var(--series-2)", candidate_label))):
            by = y + offset * (bar_h + 2)
            w = max(_log_pos(value, max_value, plot_w),
                    1.0 if value else 0.0)
            if value:
                parts.append(
                    f'<rect x="{gutter}" y="{by}" width="{w:.1f}" '
                    f'height="{bar_h}" rx="3" fill="{series}">'
                    f'<title>{esc(who)}: {esc(label)} = {_fmt(value)}'
                    f'</title></rect>')
            parts.append(f'<text x="{gutter + w + 6:.1f}" '
                         f'y="{by + bar_h - 1}">{_fmt(value)}</text>')
    parts.append("</svg>")
    return "".join(parts)


def _pair_rows(report: ComparisonReport, key_prefix: str, field: str,
               limit: int = 12) -> List[Tuple[str, float, float]]:
    rows: List[Tuple[str, float, float]] = []
    for delta in report.deltas:
        if not delta.key.startswith(key_prefix):
            continue
        if field and not delta.key.endswith("." + field):
            continue
        if delta.baseline is None or delta.candidate is None:
            continue
        label = delta.key[len(key_prefix):]
        if field and label.endswith("." + field):
            label = label[: -len(field) - 1]
        rows.append((label, delta.baseline, delta.candidate))
        if len(rows) >= limit:
            break
    return rows


def delta_table(report: ComparisonReport, limit: int = 80) -> str:
    """The severity-classified delta table as HTML (deltas beyond ``ok``)."""
    shown = [d for d in report.deltas if d.severity != OK]
    order = {REGRESSION: 0, WARN: 1, NOTE: 2, OK: 3}
    shown.sort(key=lambda d: order[d.severity])
    hidden = len(shown) - limit
    shown = shown[:limit]
    if not shown:
        return "<p class=\"note\">no deltas beyond thresholds.</p>"
    rows = []
    for delta in shown:
        rel = delta.rel_delta
        rows.append(
            "<tr>"
            f"<td>{esc(delta.key)}</td>"
            f"<td>{_fmt(delta.baseline)}</td>"
            f"<td>{_fmt(delta.candidate)}</td>"
            f"<td>{'-' if rel is None else f'{rel:+.1%}'}</td>"
            f"<td class=\"sev {esc(delta.severity)}\">"
            f"{esc(delta.severity)}</td>"
            f"<td>{esc(delta.note)}</td>"
            "</tr>")
    note = (f"<p class=\"note\">…and {hidden} more below this table's "
            f"display limit.</p>" if hidden > 0 else "")
    return (
        "<table class=\"deltas\">"
        "<tr><th>quantity</th><th>baseline</th><th>candidate</th>"
        "<th>delta</th><th>severity</th><th>why</th></tr>"
        + "".join(rows) + "</table>" + note)


def comparison_section(report: ComparisonReport, title: str,
                       pair_prefix: str = "hist.latency.",
                       pair_field: str = "p99") -> str:
    """One comparison view: legend, paired bars, and the delta table."""
    parts = [f"<h2>{esc(title)}</h2>",
             f"<p class=\"meta\">{esc(report.summary_line())}</p>"]
    for note in report.notes:
        parts.append(f"<p class=\"note\">{esc(note)}</p>")
    rows = _pair_rows(report, pair_prefix, pair_field)
    if rows:
        parts.append(
            "<p class=\"legend\">"
            "<span class=\"swatch\" style=\"background:var(--series-1)\">"
            f"</span>{esc(report.baseline_label)}"
            "<span class=\"swatch\" style=\"background:var(--series-2)\">"
            f"</span>{esc(report.candidate_label)}"
            f" — {esc(pair_prefix)}*{esc('.' + pair_field)} (log scale)</p>")
        parts.append(svg_pair_bars(rows, report.baseline_label,
                                   report.candidate_label))
    parts.append(delta_table(report))
    return "".join(parts)


# -------------------------------------------------------------- assembling


def render_dashboard(matrix: Mapping[str, Mapping[str, object]],
                     focus: Tuple[str, str],
                     comparisons: Sequence[Tuple[str, ComparisonReport]] = (),
                     baseline_config: str = "Base-2L",
                     title: str = "repro observability dashboard",
                     subtitle: str = "") -> str:
    """The full self-contained dashboard document.

    ``matrix`` is ``{workload: {config: RunRecord-or-dict}}``; ``focus``
    names the cell whose histogram digests are drawn; ``comparisons``
    are ``(section title, ComparisonReport)`` pairs appended as
    side-by-side views.
    """
    workloads = sorted(matrix)
    configs: List[str] = []
    for row in matrix.values():
        for config in row:
            if config not in configs:
                configs.append(config)
    body: List[str] = [f"<h1>{esc(title)}</h1>"]
    if subtitle:
        body.append(f"<p class=\"meta\">{esc(subtitle)}</p>")
    body.append(f"<p class=\"meta\">{len(workloads)} workload(s) x "
                f"{len(configs)} system(s); focus cell {esc(focus[0])} on "
                f"{esc(focus[1])}.</p>")

    if workloads and configs:
        body.append(f"<h2>Speedup over {esc(baseline_config)} "
                    "(sweep heatmap)</h2>")
        body.append("<p class=\"note\">cycles ratio per cell; blue = "
                    "faster than the baseline, red = slower (Figure 7 "
                    "shape).</p>")
        body.append(svg_heatmap(workloads, configs,
                                speedup_matrix(matrix, baseline_config),
                                baseline_config))

    focus_record = matrix.get(focus[0], {}).get(focus[1])
    hists = _rget(focus_record, "hists", {}) if focus_record else {}
    if isinstance(hists, Mapping) and hists:
        body.append(digest_panels(hists))
    else:
        body.append("<h2>Histogram digests</h2><p class=\"note\">the focus "
                    "cell carries no telemetry digests (regenerate it with "
                    "REPRO_FRESH=1 repro sweep).</p>")

    profile = _rget(focus_record, "profile", {}) if focus_record else {}
    if isinstance(profile, Mapping) and profile:
        body.append(profile_panel(profile))

    timeline = _rget(focus_record, "timeline", {}) if focus_record else {}
    if isinstance(timeline, Mapping) and timeline:
        body.append(timeline_panels(timeline))

    for section_title, report in comparisons:
        body.append(comparison_section(report, section_title))

    return ("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
            "<meta charset=\"utf-8\">\n"
            "<meta name=\"viewport\" "
            "content=\"width=device-width, initial-scale=1\">\n"
            f"<title>{esc(title)}</title>\n"
            f"<style>{_CSS}</style>\n</head>\n<body>\n"
            + "\n".join(body)
            + "\n</body>\n</html>\n")


def dashboard_from_records(records: Sequence[Mapping[str, object]],
                           title: str = "repro observability dashboard",
                           subtitle: str = "") -> str:
    """A dashboard assembled from loose run records (the serving path).

    ``repro dashboard`` writes a file from a sweep it just ran; the
    daemon's ``GET /dashboard`` instead renders whatever the run cache
    holds *right now*.  ``records`` are RunRecord objects or their JSON
    dicts in any order; the focus cell is the first (workload, config)
    carrying histogram digests, so the panels are populated whenever
    any record can populate them.  An empty cache renders a valid page
    saying so rather than erroring.
    """
    matrix: Dict[str, Dict[str, object]] = {}
    for record in records:
        workload = str(_rget(record, "workload", ""))
        config = str(_rget(record, "config", ""))
        if workload and config:
            matrix.setdefault(workload, {})[config] = record
    focus = ("", "")
    for workload in sorted(matrix):
        for config in matrix[workload]:
            if focus == ("", ""):
                focus = (workload, config)
            hists = _rget(matrix[workload][config], "hists", {})
            if isinstance(hists, Mapping) and hists:
                focus = (workload, config)
                break
        else:
            continue
        break
    if not matrix:
        return ("<!DOCTYPE html>\n<html lang=\"en\"><head>"
                "<meta charset=\"utf-8\">"
                f"<title>{esc(title)}</title><style>{_CSS}</style></head>"
                f"<body><h1>{esc(title)}</h1><p class=\"note\">the run "
                "cache holds no records yet; POST a matrix to /runs "
                "first.</p></body></html>\n")
    return render_dashboard(matrix, focus=focus, title=title,
                            subtitle=subtitle)


__all__ = [
    "comparison_section",
    "dashboard_from_records",
    "delta_table",
    "digest_panels",
    "profile_panel",
    "render_dashboard",
    "svg_profile_bars",
    "speedup_color",
    "speedup_matrix",
    "svg_digest_bars",
    "svg_heatmap",
    "svg_pair_bars",
    "svg_timeline",
    "timeline_page",
    "timeline_panels",
]
