"""Serving-API payload schemas and the --schema lint entry."""

import json

from repro.experiments.records import SCALAR_METRICS
from repro.serve.schema import classify_payload, validate_payload
from tools.lint_repro import check_schema, main as lint_main


def health_payload(**overrides):
    payload = {"ok": True, "version": "1.0", "simulations": 3, "inflight": 0,
               "queue_depth": 1, "uptime_s": 12.5,
               "jobs": {"pending": 0, "running": 1, "done": 2, "failed": 0},
               "lanes": {"idle": 1, "running": 1, "stalled": 0}}
    payload.update(overrides)
    return payload


def job_payload(**overrides):
    payload = {
        "id": "abc123", "state": "done", "created_ts": 1000.5, "error": "",
        "request": {"workloads": ["water"], "configs": ["Base-2L"],
                    "instructions": 1000, "seed": 5, "warmup": 400,
                    "nodes": 8},
        "cells": [{"workload": "water", "config": "Base-2L",
                   "key": "k" * 24, "state": "simulated"}],
        "done_cells": 1, "total_cells": 1,
    }
    payload.update(overrides)
    return payload


def record_payload(**overrides):
    payload = {"workload": "water", "category": "scientific",
               "config": "Base-2L", "instructions": 1000,
               "events": {}, "hists": {}}
    for name in SCALAR_METRICS:
        payload[name] = 1.0
    payload.update(overrides)
    return payload


def timeline_payload_doc(**overrides):
    payload = {
        "job": "abc123", "state": "running", "timeline_epoch": 4096,
        "cells": [{"workload": "water", "config": "Base-2L",
                   "key": "k" * 24, "state": "simulated",
                   "timeline": {"epochs": 0}}],
        "live": [{"stream": "tl-42", "epochs": [{"epoch": 0,
                                                 "instructions": 10}]}],
    }
    payload.update(overrides)
    return payload


class TestValidators:
    def test_valid_payloads_pass(self):
        assert validate_payload("health", health_payload()) == []
        assert validate_payload("job", job_payload()) == []
        assert validate_payload("record", record_payload()) == []
        assert validate_payload("timeline", timeline_payload_doc()) == []
        assert validate_payload("error", {"error": "boom"}) == []

    def test_unknown_kind_and_non_object(self):
        assert validate_payload("widget", {})
        assert validate_payload("health", [1, 2])

    def test_health_job_counts_must_cover_every_state(self):
        broken = health_payload(jobs={"pending": 0})
        assert any("running" in p for p in validate_payload("health", broken))

    def test_health_lane_counts_must_cover_every_state(self):
        broken = health_payload(lanes={"idle": 2})
        problems = validate_payload("health", broken)
        assert any("stalled" in p for p in problems)

    def test_health_requires_queue_depth_and_uptime(self):
        broken = health_payload()
        del broken["queue_depth"], broken["uptime_s"]
        problems = validate_payload("health", broken)
        assert any("queue_depth" in p for p in problems)
        assert any("uptime_s" in p for p in problems)

    def test_job_trace_optional_but_typed(self):
        assert validate_payload("job", job_payload(trace="a" * 16)) == []
        assert validate_payload("job", job_payload()) == []  # pre-tracing
        assert any("trace" in p for p in validate_payload(
            "job", job_payload(trace=42)))

    def test_job_state_and_cell_state_vocabulary(self):
        assert any("paused" in p for p in validate_payload(
            "job", job_payload(state="paused")))
        bad_cell = job_payload()
        bad_cell["cells"][0]["state"] = "warming"
        assert any("warming" in p for p in validate_payload("job", bad_cell))

    def test_job_request_echo_is_checked(self):
        broken = job_payload()
        del broken["request"]["warmup"]
        broken["request"]["workloads"] = []
        problems = validate_payload("job", broken)
        assert any("request.warmup" in p for p in problems)
        assert any("request.workloads" in p for p in problems)

    def test_job_progress_block_optional_but_shaped(self):
        with_progress = job_payload(progress={"heartbeats": [{}],
                                              "recent": [{"event": "x"}]})
        assert validate_payload("job", with_progress) == []
        broken = job_payload(progress={"heartbeats": "nope", "recent": []})
        assert any("heartbeats" in p
                   for p in validate_payload("job", broken))

    def test_record_requires_every_scalar_metric(self):
        broken = record_payload()
        del broken[SCALAR_METRICS[0]]
        assert any(SCALAR_METRICS[0] in p
                   for p in validate_payload("record", broken))

    def test_error_message_must_be_nonempty(self):
        assert validate_payload("error", {"error": ""})

    def test_timeline_nested_series_are_schema_checked(self):
        broken = timeline_payload_doc()
        broken["cells"][0]["timeline"] = {"epochs": "3"}
        assert any("not an int" in p
                   for p in validate_payload("timeline", broken))

    def test_timeline_live_streams_must_be_shaped(self):
        broken = timeline_payload_doc(live=[{"stream": "tl-1",
                                             "epochs": "not-a-list"}])
        assert any("live[0]" in p
                   for p in validate_payload("timeline", broken))

    def test_record_digests_and_profile_are_validated(self):
        broken = record_payload(hists={"latency.L1": {"mean": 1.0}},
                                profile={"driver": "batched"})
        problems = validate_payload("record", broken)
        assert any("hists['latency.L1']" in p for p in problems)
        assert any("profile" in p for p in problems)

    def test_record_timeline_field_is_validated(self):
        broken = record_payload(timeline={"epochs": -2})
        assert any("negative" in p
                   for p in validate_payload("record", broken))
        # pre-v9 records carry no timeline at all: still valid
        assert validate_payload("record", record_payload()) == []


class TestClassify:
    def test_shapes(self):
        assert classify_payload(health_payload()) == "health"
        assert classify_payload(job_payload()) == "job"
        assert classify_payload(record_payload()) == "record"
        assert classify_payload(timeline_payload_doc()) == "timeline"
        assert classify_payload({"error": "boom"}) == "error"
        assert classify_payload({"epochs": 0}) == "series"

    def test_unrecognizable(self):
        assert classify_payload({"stuff": 1}) is None
        assert classify_payload([1]) is None
        # an extra key means it is not a bare error envelope
        assert classify_payload({"error": "x", "detail": "y"}) is None


class TestLintEntry:
    def write(self, directory, name, payload):
        path = directory / name
        path.write_text(json.dumps(payload))
        return path

    def test_directory_of_valid_payloads(self, tmp_path, capsys):
        self.write(tmp_path, "health.json", health_payload())
        self.write(tmp_path, "job.json", job_payload())
        self.write(tmp_path, "record.json", record_payload())
        self.write(tmp_path, "error.json", {"error": "no such job"})
        assert check_schema([tmp_path]) == []
        assert lint_main(["--schema", str(tmp_path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_payload_fails_the_lint(self, tmp_path, capsys):
        self.write(tmp_path, "bad.json", health_payload(ok="yes"))
        assert lint_main(["--schema", str(tmp_path)]) == 1
        assert "ok" in capsys.readouterr().out

    def test_unrecognizable_shape_is_a_problem(self, tmp_path):
        self.write(tmp_path, "mystery.json", {"what": "even"})
        problems = check_schema([tmp_path])
        assert any("unrecognizable" in p for p in problems)

    def test_empty_match_is_a_problem(self, tmp_path):
        assert check_schema([tmp_path])  # no *.json inside

    def test_no_args_is_usage_error(self, capsys):
        assert lint_main(["--schema"]) == 2
        assert "needs" in capsys.readouterr().err
