"""Table V: received invalidations vs Base-2L and private-miss fraction.

D2M multicasts invalidations at region granularity, so it *receives* more
(including false) invalidations than a line-granular directory — the
paper reports the count normalized to Base-2L — while the private-region
classification removes coherence traffic entirely for, on average, 68 %
of the misses (100 % for the Server mixes).
"""

from __future__ import annotations

from repro.experiments.runner import Matrix, by_category, get_matrix
from repro.experiments.tables import render_table

D2M_CONFIG = "D2M-NS-R"


def rows_for(matrix: Matrix):
    rows = []
    privates = []
    for category, workloads in by_category(matrix).items():
        for workload in workloads:
            row = matrix[workload]
            base = row["Base-2L"].invalidations
            d2m = row[D2M_CONFIG]
            norm = (d2m.invalidations / base * 100.0) if base else 0.0
            privates.append(d2m.private_miss_fraction)
            rows.append([
                f"{category[:3]}:{workload}",
                f"{base:.0f}",
                f"{d2m.invalidations:.0f}",
                f"{norm:.0f}%" if base else "-",
                f"{d2m.private_miss_fraction * 100:.0f}%",
            ])
    avg_private = sum(privates) / len(privates) if privates else 0.0
    return rows, avg_private


def main(matrix: Matrix | None = None) -> float:
    matrix = matrix if matrix is not None else get_matrix()
    rows, avg_private = rows_for(matrix)
    print(render_table(
        ["workload", "inv Base-2L", f"inv {D2M_CONFIG}", "normalized",
         "private misses"],
        rows,
        title="Table V - Received invalidations (incl. false) and misses "
              "to private regions",
    ))
    print(f"\n  average private-miss fraction: {avg_private * 100:.0f}% "
          f"(paper: 68%; Server mixes 100%)")
    return avg_private


if __name__ == "__main__":
    main()
