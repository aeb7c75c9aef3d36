"""The stats-key lint gate: registry enforcement and waivers."""

import json
from pathlib import Path

from repro.common.stats import STAT_KEYS
from repro.experiments.records import SCALAR_METRICS
from tests.serve.test_schema import record_payload
from tools.lint_repro import (
    REPO_ROOT,
    check_schema,
    check_tracked_bytecode,
    lint_paths,
    main,
)


def lint_source(tmp_path, source, name="fixture.py"):
    path = tmp_path / name
    path.write_text(source)
    return lint_paths([path])


class TestRegistryEnforcement:
    def test_whole_package_is_clean(self):
        assert lint_paths([REPO_ROOT / "src" / "repro"]) == []

    def test_registered_literal_passes(self, tmp_path):
        assert lint_source(tmp_path, 'stats.add("l1.i.hits")\n') == []

    def test_typoed_key_fails(self, tmp_path):
        problems = lint_source(tmp_path, 'stats.add("l1.i.acceses")\n')
        assert len(problems) == 1
        assert "l1.i.acceses" in problems[0]
        assert "STAT_KEYS" in problems[0]

    def test_typoed_key_on_events_receiver_fails(self, tmp_path):
        problems = lint_source(tmp_path, 'self.events.add("D5")\n')
        assert len(problems) == 1 and '"D5"' in problems[0]

    def test_ratio_checks_both_keys(self, tmp_path):
        problems = lint_source(
            tmp_path, 'stats.ratio("l1.i.hits", "l1.i.acceses")\n')
        assert len(problems) == 1 and "l1.i.acceses" in problems[0]

    def test_non_stat_receiver_ignored(self, tmp_path):
        assert lint_source(tmp_path, 'cache.add("whatever")\n') == []

    def test_conditional_expression_both_arms_checked(self, tmp_path):
        ok = 'stats.get("l2.i.hits" if instr else "l2.d.hits")\n'
        bad = 'stats.get("l2.i.hits" if instr else "l2.d.hitz")\n'
        assert lint_source(tmp_path, ok) == []
        problems = lint_source(tmp_path, bad)
        assert len(problems) == 1 and "l2.d.hitz" in problems[0]

    def test_key_table_values_validated(self, tmp_path):
        ok = ('_KEY_X = {True: "l1.i.hits", False: "l1.d.hits"}\n'
              'stats.add(_KEY_X[flag])\n')
        bad = '_KEY_X = {True: "l1.i.hits", False: "nope"}\n'
        assert lint_source(tmp_path, ok) == []
        problems = lint_source(tmp_path, bad)
        assert len(problems) == 1 and '"nope"' in problems[0]

    def test_plain_variable_key_passes(self, tmp_path):
        assert lint_source(tmp_path,
                           'for k in keys:\n    stats.get(k)\n') == []


class TestDynamicKeyWaiver:
    def test_fstring_key_fails_without_waiver(self, tmp_path):
        problems = lint_source(tmp_path, 'stats.set(f"{name}.reads", 1)\n')
        assert len(problems) == 1
        assert "allow-dynamic-stat-key" in problems[0]

    def test_fstring_key_passes_with_waiver(self, tmp_path):
        source = ('stats.set(f"{name}.reads", 1)'
                  '  # lint: allow-dynamic-stat-key\n')
        assert lint_source(tmp_path, source) == []


class TestCli:
    def test_main_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text('stats.add("l1.i.hits")\n')
        bad = tmp_path / "bad.py"
        bad.write_text('stats.add("wrong.key")\n')
        assert main([str(good)]) == 0
        assert main([str(bad)]) == 1
        assert "wrong.key" in capsys.readouterr().out
        assert main([str(tmp_path / "missing.py")]) == 2

    def test_syntax_error_reported_not_crashed(self, tmp_path):
        problems = lint_source(tmp_path, "def broken(:\n")
        assert len(problems) == 1 and "syntax error" in problems[0]


def _write_record(path: Path, hists) -> Path:
    record = {"workload": "water", "category": "scientific",
              "config": "D2M-NS-R", "instructions": 1000, "events": {},
              "hists": hists}
    record.update((name, 1.0) for name in SCALAR_METRICS)
    path.write_text(json.dumps(record))
    return path


GOOD_DIGEST = {"count": 4.0, "mean": 2.5, "max": 7.0,
               "p50": 3.0, "p90": 7.0, "p99": 7.0}


class TestDigestSchema:
    def test_valid_records_pass(self, tmp_path):
        _write_record(tmp_path / "a.json",
                      {"latency.L1": GOOD_DIGEST, "noc.hops": {"count": 0.0}})
        assert check_schema([tmp_path / "a.json"]) == []

    def test_directory_mode_scans_every_record(self, tmp_path):
        _write_record(tmp_path / "a.json", {"latency.L1": GOOD_DIGEST})
        _write_record(tmp_path / "b.json",
                      {"latency.L1": dict(GOOD_DIGEST, p50=100.0)})
        problems = check_schema([tmp_path])
        assert len(problems) == 1
        assert "b.json" in problems[0] and "monotonic" in problems[0]

    def test_unknown_and_missing_keys_flagged(self, tmp_path):
        _write_record(tmp_path / "a.json", {
            "x": dict(GOOD_DIGEST, bogus=1.0),
            "y": {"count": 2.0, "mean": 1.0},
        })
        problems = check_schema([tmp_path / "a.json"])
        assert any("unknown digest keys: bogus" in p for p in problems)
        assert any("missing keys" in p for p in problems)

    def test_degenerate_empty_digest_flagged(self, tmp_path):
        # the pre-fix hop_histogram shape: count 0 but zero-valued stats
        _write_record(tmp_path / "a.json", {
            "noc.hops": {"count": 0.0, "mean": 0.0, "max": 0.0,
                         "p50": 0.0, "p90": 0.0, "p99": 0.0}})
        problems = check_schema([tmp_path / "a.json"])
        assert len(problems) == 1
        assert "empty digest carries value keys" in problems[0]

    def test_non_numbers_and_negatives_flagged(self, tmp_path):
        _write_record(tmp_path / "a.json", {
            "x": dict(GOOD_DIGEST, count=True),
            "y": dict(GOOD_DIGEST, mean=-1.0),
        })
        problems = check_schema([tmp_path / "a.json"])
        assert any("not a number" in p for p in problems)
        assert any("negative" in p for p in problems)

    def test_cli_mode_exit_codes(self, tmp_path, capsys):
        good = _write_record(tmp_path / "good.json",
                             {"latency.L1": GOOD_DIGEST})
        bad = _write_record(tmp_path / "bad.json",
                            {"latency.L1": {"mean": 1.0}})
        assert main(["--schema", str(good)]) == 0
        assert main(["--schema", str(bad)]) == 1
        assert "missing key: count" in capsys.readouterr().out
        assert main(["--schema"]) == 2

    def test_profile_digest_checked(self, tmp_path):
        path = _write_record(tmp_path / "a.json", {})
        record = json.loads(path.read_text())
        record["profile"] = {"driver": "batched"}
        path.write_text(json.dumps(record))
        assert any("profile" in p for p in check_schema([path]))

    def test_real_cached_record_shape_passes(self, tmp_path):
        from repro.obs.histogram import Histogram

        hist = Histogram("latency.L1")
        for value in (1, 5, 9, 200):
            hist.record(value)
        _write_record(tmp_path / "a.json", {"latency.L1": hist.summary()})
        assert check_schema([tmp_path]) == []


class TestRegistryContents:
    def test_registry_covers_event_taxonomy(self):
        assert {"A", "B", "C", "D1", "D2", "D3", "D4", "E", "F"} <= STAT_KEYS

    def test_registry_keys_are_strings(self):
        assert all(isinstance(key, str) and key for key in STAT_KEYS)


class TestTimelineSchemaLint:
    def test_records_and_bare_timelines_both_validate(self, tmp_path):
        (tmp_path / "record.json").write_text(json.dumps(
            record_payload(timeline={"epochs": 0})))
        (tmp_path / "bare.json").write_text(json.dumps({"epochs": 0}))
        assert check_schema([tmp_path]) == []

    def test_malformed_series_fail(self, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps(
            record_payload(timeline={"epochs": "3"})))
        problems = check_schema([tmp_path])
        assert any("not an int" in p for p in problems)

    def test_empty_match_is_a_problem(self, tmp_path):
        assert check_schema([tmp_path / "absent"])


class TestTrackedBytecode:
    def test_repo_tracks_no_bytecode(self):
        # vacuous outside a git checkout; a hard failure inside one
        assert check_tracked_bytecode() == []
