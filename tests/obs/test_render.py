"""Tests for the static HTML dashboard renderer."""

from repro.experiments.records import RunRecord
from repro.obs.compare import compare_records
from repro.obs.render import (
    delta_table,
    digest_panels,
    esc,
    profile_panel,
    render_dashboard,
    speedup_color,
    speedup_matrix,
    svg_digest_bars,
    svg_heatmap,
    svg_pair_bars,
    svg_profile_bars,
)

HISTS = {
    "latency.L1": {"count": 900.0, "mean": 2.0, "max": 7.0,
                   "p50": 1.0, "p90": 3.0, "p99": 7.0},
    "latency.MEM": {"count": 40.0, "mean": 210.0, "max": 511.0,
                    "p50": 255.0, "p90": 511.0, "p99": 511.0},
    "noc.hops": {"count": 300.0, "mean": 1.1, "max": 3.0,
                 "p50": 1.0, "p90": 1.0, "p99": 3.0},
    "mshr.residency": {"count": 0.0},
    "unknown.family": {"count": 5.0, "mean": 1.0, "max": 1.0,
                       "p50": 1.0, "p90": 1.0, "p99": 1.0},
}


def make_record(config, cycles, hists=None):
    return RunRecord("water", "sa", config, 1000, cycles=cycles,
                     hists=dict(hists if hists is not None else HISTS))


def make_matrix():
    return {"water": {"Base-2L": make_record("Base-2L", 20_000.0),
                      "D2M-NS-R": make_record("D2M-NS-R", 10_000.0)}}


class TestSpeedups:
    def test_speedup_matrix_is_cycles_ratio(self):
        values = speedup_matrix(make_matrix(), "Base-2L")
        assert values[("water", "Base-2L")] == 1.0
        assert values[("water", "D2M-NS-R")] == 2.0

    def test_zero_cycles_yield_none(self):
        matrix = {"water": {"Base-2L": make_record("Base-2L", 0.0),
                            "D2M-NS-R": make_record("D2M-NS-R", 100.0)}}
        values = speedup_matrix(matrix, "Base-2L")
        assert values[("water", "D2M-NS-R")] is None

    def test_diverging_color_poles(self):
        neutral = speedup_color(1.0)
        assert speedup_color(1.3) != neutral
        assert speedup_color(0.85) != neutral
        assert speedup_color(1.3) != speedup_color(0.85)
        # extreme values clamp instead of overflowing the hex channels
        assert speedup_color(50.0) == speedup_color(1.3)

    def test_heatmap_labels_every_cell(self):
        values = speedup_matrix(make_matrix(), "Base-2L")
        svg = svg_heatmap(["water"], ["Base-2L", "D2M-NS-R"], values,
                          "Base-2L")
        assert svg.startswith("<svg")
        assert "1.00x" in svg and "2.00x" in svg
        assert "water" in svg and "D2M-NS-R" in svg

    def test_heatmap_missing_cell_renders_blank(self):
        svg = svg_heatmap(["water"], ["Base-2L"], {}, "Base-2L")
        assert "var(--surface-2)" in svg
        assert "x</text>" not in svg


class TestDigestCharts:
    def test_bars_carry_value_labels_and_tooltips(self):
        svg = svg_digest_bars("latency.MEM", HISTS["latency.MEM"], 511.0)
        for label in ("p50", "p90", "p99", "max"):
            assert label in svg
        assert "511" in svg
        assert "<title>" in svg
        assert "count 40" in svg

    def test_panels_group_by_family_and_skip_empty(self):
        html = digest_panels(HISTS)
        assert "Access latency by service level" in html
        assert "NoC hop distribution" in html
        assert "latency.L1" in html and "latency.MEM" in html
        # empty member and unknown family are both excluded
        assert "mshr.residency" not in html
        assert "unknown.family" not in html

    def test_no_panels_for_all_empty(self):
        assert digest_panels({"latency.L1": {"count": 0.0}}) == ""


PROFILE = {
    "driver": "batched", "wall_s": 2.0, "fast_s": 1.2, "slow_s": 0.8,
    "chunks": 8, "slow_accesses": 1200,
    "classes": {"d2m.D1": {"s": 0.5, "n": 700},
                "d2m.B": {"s": 0.3, "n": 500}},
    "hists": {},
}


class TestProfilePanel:
    def test_ranked_bars_most_expensive_first(self):
        html = profile_panel(PROFILE)
        assert "Slow-tail attribution" in html
        assert "1200" in html and "8 chunks" in html
        # ranking order shows in the SVG row order
        assert html.index("d2m.D1") < html.index("d2m.B")
        assert "0.5000s over 700 fallback accesses" in html

    def test_empty_profile_renders_nothing(self):
        assert profile_panel({}) == ""
        assert profile_panel("nope") == ""

    def test_profile_without_slow_accesses_says_so(self):
        quiet = dict(PROFILE, classes={}, slow_accesses=0, slow_s=0.0)
        html = profile_panel(quiet)
        assert "no slow-tail accesses" in html

    def test_display_limit_reports_hidden_rows(self):
        wide = dict(PROFILE)
        wide["classes"] = {f"d2m.T{i}": {"s": 0.1, "n": 1}
                           for i in range(20)}
        html = profile_panel(wide, limit=5)
        assert "15 more" in html

    def test_bars_scale_to_the_largest_class(self):
        rows = [("d2m.D1", 0.5, 700), ("d2m.B", 0.25, 500)]
        svg = svg_profile_bars(rows)
        assert 'aria-label="slow-tail attribution"' in svg
        assert svg.count("<rect") == 2

    def test_dashboard_includes_the_panel_for_profiled_focus(self):
        matrix = make_matrix()
        matrix["water"]["D2M-NS-R"].profile.update(PROFILE)
        html = render_dashboard(matrix, focus=("water", "D2M-NS-R"))
        assert "Slow-tail attribution" in html
        assert "d2m.D1" in html

    def test_dashboard_omits_the_panel_without_a_profile(self):
        html = render_dashboard(make_matrix(), focus=("water", "D2M-NS-R"))
        assert "Slow-tail attribution" not in html


class TestComparisonViews:
    def _report(self):
        return compare_records(
            make_record("Base-2L", 20_000.0),
            make_record("D2M-NS-R", 10_000.0,
                        hists={"latency.L1": {"count": 900.0, "mean": 1.0,
                                              "max": 3.0, "p50": 1.0,
                                              "p90": 1.0, "p99": 3.0}}),
            informational=True)

    def test_delta_table_severity_classes(self):
        html = delta_table(self._report())
        assert 'class="deltas"' in html
        assert 'class="sev note"' in html
        assert "cycles" in html

    def test_delta_table_truncates(self):
        html = delta_table(self._report(), limit=1)
        assert "more below this table" in html

    def test_pair_bars_draw_both_series(self):
        svg = svg_pair_bars([("L1", 7.0, 3.0)], "old", "new")
        assert svg.count("var(--series-1)") == 1
        assert svg.count("var(--series-2)") == 1
        assert "old" in svg and "new" in svg


class TestRenderDashboard:
    def test_self_contained_document(self):
        matrix = make_matrix()
        comparison = compare_records(matrix["water"]["Base-2L"],
                                     matrix["water"]["D2M-NS-R"],
                                     informational=True)
        html = render_dashboard(matrix, focus=("water", "D2M-NS-R"),
                                comparisons=[("Side by side", comparison)])
        assert html.startswith("<!DOCTYPE html>")
        assert html.rstrip().endswith("</html>")
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html
        assert "<style>" in html  # all styling is inline
        assert "Speedup over Base-2L" in html
        assert "latency.L1" in html
        assert "Side by side" in html

    def test_focus_without_telemetry_explains(self):
        matrix = {"water": {"Base-2L": make_record("Base-2L", 100.0,
                                                   hists={})}}
        html = render_dashboard(matrix, focus=("water", "Base-2L"))
        assert "no telemetry digests" in html

    def test_escapes_untrusted_names(self):
        record = make_record("<Evil&Co>", 100.0)
        matrix = {"water": {"<Evil&Co>": record}}
        html = render_dashboard(matrix, focus=("water", "<Evil&Co>"),
                                baseline_config="<Evil&Co>")
        assert "<Evil&Co>" not in html
        assert "&lt;Evil&amp;Co&gt;" in html

    def test_esc(self):
        assert esc('<a "b">') == "&lt;a &quot;b&quot;&gt;"
