"""Longitudinal bench trends: ``BENCH_*.json`` reports as one table.

``repro bench`` emits one dated perf report per run and ``repro
compare`` diffs exactly two of them; this tool reads *every* report in
a directory (dated names sort chronologically) and prints the trend —
geomean instructions/second per report plus the delta against the
previous report of the same kind.  Deltas are only computed between
reports with the same mode and pinned matrix (a ``--quick`` report
against a full one would just measure the budget difference, the same
rule ``compare_bench`` applies).

Stdlib only, so it runs anywhere the repo is checked out::

    python -m tools.bench_history [--root DIR] [--json]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence


def history_rows(paths: Sequence[Path]) -> List[Dict[str, object]]:
    """One row per readable bench report, in the order given.

    ``delta`` is the relative geomean-ips change against the previous
    comparable report (same mode + pinned matrix), None for the first
    of its kind.  ``equivalence`` is True/False when the report ran its
    equivalence gate, None when it skipped it.  Unreadable or foreign
    JSON files are skipped silently (same contract as the run cache).
    """
    rows: List[Dict[str, object]] = []
    previous: Dict[str, float] = {}
    for path in paths:
        try:
            report = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if not isinstance(report, dict) or "geomean_ips" not in report \
                or "cells" not in report:
            continue
        mode = str(report.get("mode", "?"))
        kind = mode + "|" + json.dumps(report.get("matrix", {}),
                                       sort_keys=True)
        geomean = float(report.get("geomean_ips", 0.0) or 0.0)
        prev = previous.get(kind, 0.0)
        delta: Optional[float] = (geomean / prev - 1.0) if prev > 0 else None
        cells = report.get("cells")
        equivalence: Optional[bool] = None
        if report.get("equivalence_checked"):
            equivalence = bool(report.get("equivalence_ok", True))
        rows.append({
            "name": Path(path).name,
            "date": str(report.get("date", "")),
            "mode": mode,
            "cells": len(cells) if isinstance(cells, list) else 0,
            "geomean_ips": geomean,
            "delta": delta,
            "equivalence": equivalence,
        })
        if geomean > 0:
            previous[kind] = geomean
    return rows


def history_table(rows: Sequence[Dict[str, object]]) -> str:
    """The trend table as plain text (one line per report)."""
    if not rows:
        return "bench history: no BENCH_*.json reports found"
    name_width = max(max(len(str(row["name"])) for row in rows), 6)
    header = (f"{'report':<{name_width}}  {'mode':5}  {'cells':>5}  "
              f"{'geomean ips':>12}  {'vs prev':>8}  equiv")
    lines = [header, "-" * len(header)]
    for row in rows:
        delta = row["delta"]
        delta_text = "-" if delta is None else f"{delta:+.1%}"  # type: ignore[str-format]
        equivalence = row["equivalence"]
        equiv_text = ("-" if equivalence is None
                      else "ok" if equivalence else "FAIL")
        lines.append(f"{str(row['name']):<{name_width}}  "
                     f"{str(row['mode']):5}  {row['cells']:>5}  "
                     f"{float(row['geomean_ips']):>12,.1f}  "  # type: ignore[arg-type]
                     f"{delta_text:>8}  {equiv_text}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_history",
        description="trend table over every BENCH_*.json in a directory")
    parser.add_argument("--root", default=".",
                        help="directory holding BENCH_*.json (default .)")
    parser.add_argument("--json", action="store_true",
                        help="emit the rows as JSON instead of a table")
    args = parser.parse_args(argv)
    rows = history_rows(sorted(Path(args.root).glob("BENCH_*.json")))
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(history_table(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
