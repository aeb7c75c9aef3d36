"""Submission validation and response construction (no sockets)."""

import json

import pytest

from repro.experiments.runner import run_cache_key
from repro.serve.handlers import (
    MAX_CELLS_PER_JOB,
    MAX_NODES,
    BadRequest,
    build_cells,
    job_payload,
    parse_submission,
    record_response,
    tail_jsonl,
    timeline_payload,
)
from repro.serve.queue import make_job
from repro.sim.runner import instruction_budget, warmup_budget
from repro.workloads.registry import workload_names


class TestParseSubmission:
    def test_minimal_body_resolves_every_default(self):
        request, configs = parse_submission({})
        assert request["workloads"] == workload_names()
        assert request["configs"] == [config.name for config in configs]
        assert request["instructions"] == instruction_budget()
        assert request["warmup"] == warmup_budget(request["instructions"])
        assert request["seed"] == 1
        assert request["nodes"] == 8

    def test_explicit_fields_round_trip(self):
        request, configs = parse_submission({
            "workloads": ["water", "lu"], "configs": ["Base-2L", "D2M-FS"],
            "instructions": 5_000, "seed": 7, "warmup": 250, "nodes": 4,
            "timeline": 2048})
        assert request == {"workloads": ["water", "lu"],
                           "configs": ["Base-2L", "D2M-FS"],
                           "instructions": 5_000, "seed": 7,
                           "warmup": 250, "nodes": 4, "timeline": 2048}
        assert [config.nodes for config in configs] == [4, 4]

    def test_config_names_case_insensitive_order_preserving(self):
        request, _ = parse_submission({"configs": ["d2m-fs", "BASE-2L",
                                                   "d2m-fs"]})
        assert request["configs"] == ["D2M-FS", "Base-2L"]  # deduped

    @pytest.mark.parametrize("body,fragment", [
        ([], "JSON object"),
        ({"wrkloads": ["water"]}, "unknown field"),
        ({"workloads": []}, "non-empty"),
        ({"workloads": ["no-such-workload"]}, "no-such-workload"),
        ({"workloads": "water"}, "non-empty list"),
        ({"configs": ["NotASystem"]}, "NotASystem"),
        ({"configs": []}, "non-empty"),
        ({"instructions": "many"}, "integer"),
        ({"instructions": True}, "integer"),
        ({"instructions": -5}, ">="),
        ({"seed": -1}, ">="),
        ({"warmup": -1}, "warmup"),
        ({"warmup": "lots"}, "warmup"),
        ({"nodes": 0}, ">="),
        ({"nodes": MAX_NODES + 1}, "<="),
    ])
    def test_rejections(self, body, fragment):
        with pytest.raises(BadRequest) as excinfo:
            parse_submission(body)
        assert fragment in str(excinfo.value)

    def test_null_warmup_means_derived(self):
        request, _ = parse_submission({"instructions": 2_000,
                                       "warmup": None})
        assert request["warmup"] == warmup_budget(2_000)

    def test_matrix_size_cap(self, monkeypatch):
        import repro.serve.handlers as handlers

        monkeypatch.setattr(handlers, "MAX_CELLS_PER_JOB", 3)
        with pytest.raises(BadRequest) as excinfo:
            parse_submission({"workloads": ["water", "lu"],
                              "configs": ["Base-2L", "D2M-FS"]})
        assert "matrix too large" in str(excinfo.value)
        assert MAX_CELLS_PER_JOB >= 4  # the real cap admits real sweeps


class TestBuildCells:
    def test_keys_match_run_cache(self):
        request, configs = parse_submission({
            "workloads": ["water"], "configs": ["Base-2L", "D2M-FS"],
            "instructions": 1_000, "seed": 5, "warmup": 400})
        cells = build_cells(request, configs)
        assert [(c.workload, c.config) for c in cells] == [
            ("water", "Base-2L"), ("water", "D2M-FS")]
        for cell in cells:
            assert cell.state == "pending"
            assert cell.key == run_cache_key("water", cell.config,
                                             1_000, 5, 400)


class TestJobPayload:
    def request(self):
        request, configs = parse_submission({"workloads": ["water"],
                                             "configs": ["Base-2L"]})
        return make_job(request, build_cells(request, configs))

    def test_bare_payload_has_no_progress(self):
        payload = job_payload(self.request())
        assert "progress" not in payload
        assert payload["total_cells"] == 1

    def test_progress_block_from_dirs(self, tmp_path):
        progress = tmp_path / "progress.jsonl"
        progress.write_text('{"event": "a"}\nnot json\n{"event": "b"}\n')
        payload = job_payload(self.request(), heartbeat_dir=tmp_path / "hb",
                              progress_path=progress, recent=5)
        assert payload["progress"]["heartbeats"] == []  # dir absent: empty
        assert [r["event"] for r in payload["progress"]["recent"]] \
            == ["a", "b"]


class TestTimelinePayload:
    def job(self, timeline=4096):
        request, configs = parse_submission({"workloads": ["water"],
                                             "configs": ["Base-2L"],
                                             "timeline": timeline})
        return make_job(request, build_cells(request, configs))

    def test_finished_cell_serves_the_cached_series(self, tmp_path):
        from repro.obs.timeline import TIMELINE_SERIES
        from repro.serve.schema import classify_payload, validate_payload
        job = self.job()
        key = job.cells[0].key
        series = {name: [1, 2] for name in TIMELINE_SERIES}
        (tmp_path / f"{key}.json").write_text(json.dumps({
            "workload": "water", "timeline": {
                "epochs": 2, "epoch_accesses": 4096, "roi_epoch": 1,
                "series": series}}))
        payload = timeline_payload(job, tmp_path)
        assert payload["timeline_epoch"] == 4096
        assert payload["cells"][0]["timeline"]["epochs"] == 2
        assert payload["live"] == []
        assert classify_payload(payload) == "timeline"
        assert validate_payload("timeline", payload) == []

    def test_untimed_cell_carries_no_series(self, tmp_path):
        job = self.job(timeline=0)
        key = job.cells[0].key
        (tmp_path / f"{key}.json").write_text(json.dumps(
            {"workload": "water", "timeline": {}}))
        payload = timeline_payload(job, tmp_path)
        assert payload["timeline_epoch"] == 0
        assert "timeline" not in payload["cells"][0]

    def test_live_streams_are_tailed_from_heartbeat_dir(self, tmp_path):
        hb = tmp_path / "hb"
        hb.mkdir()
        (hb / "tl-99.jsonl").write_text(
            '{"epoch": 0, "instructions": 10}\n'
            '{"epoch": 1, "instructions": 20}\n')
        payload = timeline_payload(self.job(), tmp_path, heartbeat_dir=hb,
                                   live_limit=1)
        assert payload["live"] == [{"stream": "tl-99",
                                    "epochs": [{"epoch": 1,
                                                "instructions": 20}]}]


class TestTailJsonl:
    def test_last_n_parsable_records_in_order(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("\n".join(json.dumps({"n": i}) for i in range(10)))
        assert [r["n"] for r in tail_jsonl(path, 3)] == [7, 8, 9]

    def test_skips_torn_and_blank_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}\n\n{"torn": \n{"n": 2}\n[3]\n')
        assert [r["n"] for r in tail_jsonl(path, 10)] == [1, 2]

    def test_missing_file_is_empty(self, tmp_path):
        assert tail_jsonl(tmp_path / "absent.jsonl", 5) == []

    def test_multi_megabyte_log_with_torn_tail(self, tmp_path):
        """A log of several MB ending mid-record: the last complete
        records come back, as a full read would give them, whether the
        tail lies in the last 64 KiB block or spans all ~70 of them."""
        path = tmp_path / "progress.jsonl"
        pad = "x" * 200
        lines = [json.dumps({"n": i, "pad": pad}) for i in range(20000)]
        path.write_text("\n".join(lines) + '\n{"n": 20000, "pa')
        assert path.stat().st_size > 4_000_000
        assert [r["n"] for r in tail_jsonl(path, 5)] == [19995, 19996, 19997,
                                                        19998, 19999]
        for limit in (1000, 19999, 20000, 30000):
            assert [r["n"] for r in tail_jsonl(path, limit)] == list(
                range(max(0, 20000 - limit), 20000))
        assert tail_jsonl(path, 0) == []

    def test_reads_only_the_tail(self, tmp_path):
        """Bytes before the last records are never read: a head that is
        not even UTF-8 does not matter."""
        path = tmp_path / "progress.jsonl"
        body = "".join(json.dumps({"n": i}) + "\n" for i in range(50))
        path.write_bytes(b"\xff\xfe" * 1_000_000 + b"\n" + body.encode())
        assert [r["n"] for r in tail_jsonl(path, 3)] == [47, 48, 49]

    def test_record_across_a_block_boundary(self, tmp_path):
        """The 64 KiB boundary falls at every offset of a ~100-byte
        record in turn (the last record's length moves it): the record
        it splits comes back whole."""
        path = tmp_path / "log.jsonl"
        lines = [json.dumps({"n": i, "pad": "x" * 80}) for i in range(1000)]
        assert 65536 < len("\n".join(lines)) < 2 * 65536
        for shift in range(len(lines[-1]) + 2):
            path.write_text("\n".join(lines) + "\n"
                            + json.dumps({"n": 1000, "pad": "z" * shift}))
            assert [r["n"] for r in tail_jsonl(path, 900)] == list(
                range(101, 1001))


class TestRecordResponse:
    KEY = "a1b2c3d4e5f60718293a4b5c"

    def serve(self, tmp_path, if_none_match=""):
        return record_response(tmp_path, self.KEY, if_none_match)

    def test_hit_carries_strong_etag(self, tmp_path):
        (tmp_path / f"{self.KEY}.json").write_text('{"workload": "water"}')
        status, etag, body = self.serve(tmp_path)
        assert status == 200
        assert etag == f'"{self.KEY}"'
        assert json.loads(body)["workload"] == "water"

    def test_revalidation_304_without_body(self, tmp_path):
        (tmp_path / f"{self.KEY}.json").write_text('{"workload": "water"}')
        for header in (f'"{self.KEY}"', "*", f'W/"{self.KEY}"',
                       f'"other", "{self.KEY}"'):
            status, etag, body = self.serve(tmp_path, header)
            assert (status, body) == (304, b""), header
            assert etag == f'"{self.KEY}"'

    def test_stale_etag_gets_fresh_body(self, tmp_path):
        (tmp_path / f"{self.KEY}.json").write_text('{"workload": "water"}')
        status, _, body = self.serve(tmp_path, '"deadbeef"')
        assert status == 200 and body

    def test_missing_record_is_404_even_with_matching_etag(self, tmp_path):
        # a reaped/absent record must not masquerade as revalidated
        status, _, _ = self.serve(tmp_path, f'"{self.KEY}"')
        assert status == 404

    @pytest.mark.parametrize("key", ["../etc/passwd", "a.b", "", "a b"])
    def test_malformed_keys_rejected(self, tmp_path, key):
        status, _, _ = record_response(tmp_path, key, "")
        assert status == 400
