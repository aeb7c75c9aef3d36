"""Figure 6: cache-hierarchy EDP normalized to Base-2L.

EDP = (SRAM + interconnect energy, static + dynamic) x execution time;
the light portion of each D2M bar is the contribution of D2M-only
structures (the metadata hierarchy).  Paper headline: D2M-NS-R reduces
cache-hierarchy EDP by ~54 % vs Base-2L and ~40 % vs Base-3L.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.runner import Matrix, by_category, get_matrix, gmean
from repro.experiments.tables import render_table

CONFIG_ORDER = ("Base-2L", "Base-3L", "D2M-FS", "D2M-NS", "D2M-NS-R")


def edp_rows(matrix: Matrix):
    rows = []
    for category, workloads in by_category(matrix).items():
        for workload in workloads:
            row = [f"{category[:3]}:{workload}"]
            base = matrix[workload]["Base-2L"].edp
            for config in CONFIG_ORDER:
                rec = matrix[workload][config]
                norm = rec.edp / base if base else 0.0
                cell = f"{norm:.2f}"
                if rec.edp_d2m_share:
                    cell += f" [{rec.edp_d2m_share * 100:.0f}%md]"
                row.append(cell)
            rows.append(row)
    return rows


def edp_summary(matrix: Matrix) -> Dict[str, float]:
    out = {}
    for config in CONFIG_ORDER:
        ratios = []
        for row in matrix.values():
            base = row["Base-2L"].edp
            if base > 0:
                ratios.append(row[config].edp / base)
        out[config] = gmean(ratios)
    return out


def main(matrix: Matrix | None = None) -> Dict[str, float]:
    matrix = matrix if matrix is not None else get_matrix()
    print(render_table(
        ["workload"] + list(CONFIG_ORDER),
        edp_rows(matrix),
        title="Figure 6 - Cache-hierarchy EDP normalized to Base-2L "
              "([..%md] = D2M-only structures' share)",
    ))
    summary = edp_summary(matrix)
    print()
    for config, ratio in summary.items():
        print(f"  {config:9s}: {ratio:5.2f}x Base-2L EDP")
    nsr = summary["D2M-NS-R"]
    b3l = summary["Base-3L"]
    # Changes read as the paper prints them: ratio - 1, so a reduction
    # is negative.
    print(f"\n  D2M-NS-R vs Base-2L: {(nsr - 1) * 100:+.0f}% "
          f"(paper: -54%); vs Base-3L: {(nsr / b3l - 1) * 100:+.0f}% "
          f"(paper: -40%)")
    return summary


if __name__ == "__main__":
    main()
