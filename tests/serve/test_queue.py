"""Persistent job queue: round-trips, corruption, ordering, recovery,
and the in-memory index that recovery alone fills from the journal."""

import json

import pytest

from repro.serve.queue import (
    Job,
    JobCell,
    JobQueue,
    make_job,
    new_job_id,
    read_job,
)


def cell(workload="water", config="Base-2L", key="k" * 24, state="pending"):
    return JobCell(workload=workload, config=config, key=key, state=state)


def job(queue, job_id, state="pending", ts=1.0):
    item = Job(id=job_id, state=state, created_ts=ts,
               request={"workloads": ["water"]}, cells=[cell()])
    queue.save(item)
    return item


class TestJobDocument:
    def test_round_trip(self, tmp_path):
        queue = JobQueue(tmp_path)
        original = make_job({"workloads": ["water"], "seed": 5},
                            [cell(), cell(config="D2M-FS", key="m" * 24)])
        queue.save(original)
        assert queue.load(original.id) is original
        loaded = read_job(tmp_path, original.id)  # the journal copy
        assert loaded is not None
        assert loaded.to_json() == original.to_json()

    def test_to_json_matches_the_dataclass_fields(self):
        """The hand-built payload is ``asdict`` plus the two counts:
        same keys, same order, same values."""
        from dataclasses import asdict

        document = make_job(
            {"workloads": ["water", "lu"], "configs": ["Base-2L"],
             "instructions": 800, "seed": 5, "warmup": 400, "nodes": 8,
             "timeline": 0},
            [cell(state="cached"), cell(config="D2M-FS", key="m" * 24)],
            trace="t" * 16)
        document.error = "lu on D2M-FS: boom"
        expected = asdict(document)
        expected["done_cells"] = 1
        expected["total_cells"] = 2
        payload = document.to_json()
        assert payload == expected
        assert list(payload) == list(expected)
        assert [list(entry) for entry in payload["cells"]] == \
            [list(entry) for entry in expected["cells"]]
        assert list(payload["request"]) == list(expected["request"])

    def test_done_cells_counts_terminal_successes(self):
        item = Job(id="j1", state="running", created_ts=1.0, request={},
                   cells=[cell(state="cached"), cell(state="simulated"),
                          cell(state="coalesced"), cell(state="failed"),
                          cell(state="pending")])
        assert item.done_cells == 3
        assert item.to_json()["done_cells"] == 3
        assert item.to_json()["total_cells"] == 5

    def test_bad_states_rejected(self):
        with pytest.raises(ValueError):
            Job(id="j", state="paused", created_ts=1.0, request={})
        with pytest.raises(ValueError):
            cell(state="warming")

    def test_ids_are_unique(self):
        assert len({new_job_id() for _ in range(100)}) == 100


class TestJobQueue:
    def test_load_missing_or_corrupt_is_none(self, tmp_path):
        assert read_job(tmp_path, "nope") is None
        (tmp_path / "torn.json").write_text('{"id": "torn", "sta')
        assert read_job(tmp_path, "torn") is None
        (tmp_path / "alien.json").write_text('{"id": "alien"}')
        assert read_job(tmp_path, "alien") is None
        queue = JobQueue(tmp_path)
        assert queue.load("nope") is None
        assert queue.recover() == []
        assert queue.jobs() == []  # corrupt files don't break recovery

    def test_planted_files_are_seen_through_recover_only(self, tmp_path):
        writer = JobQueue(tmp_path)
        job(writer, "early", ts=1.0)
        job(writer, "late", state="running", ts=2.0)
        queue = JobQueue(tmp_path)
        # the index is the queue's memory: files it did not write stay
        # invisible until the one directory scan at start
        assert queue.jobs() == [] and queue.load("early") is None
        assert queue.next_pending() is None
        assert queue.counts()["pending"] == 0
        assert queue.recover() == ["late"]
        assert [item.id for item in queue.jobs()] == ["early", "late"]
        assert queue.counts()["pending"] == 2
        # a file planted after recovery is not picked up
        job(writer, "planted", ts=0.5)
        assert queue.load("planted") is None
        assert queue.next_pending().id == "early"

    def test_jobs_ordered_oldest_first(self, tmp_path):
        queue = JobQueue(tmp_path)
        job(queue, "bbb", ts=2.0)
        job(queue, "aaa", ts=1.0)
        job(queue, "ccc", ts=2.0)  # same tick: id breaks the tie
        assert [item.id for item in queue.jobs()] == ["aaa", "bbb", "ccc"]

    def test_next_pending_skips_settled_jobs(self, tmp_path):
        queue = JobQueue(tmp_path)
        job(queue, "done1", state="done", ts=1.0)
        job(queue, "run1", state="running", ts=2.0)
        wanted = job(queue, "pend1", ts=3.0)
        nxt = queue.next_pending()
        assert nxt is not None and nxt.id == wanted.id

    def test_counts(self, tmp_path):
        queue = JobQueue(tmp_path)
        job(queue, "a", state="pending")
        job(queue, "b", state="done")
        job(queue, "c", state="done")
        assert queue.counts() == {"pending": 1, "running": 0,
                                  "done": 2, "failed": 0}

    def test_recover_requeues_only_running(self, tmp_path):
        queue = JobQueue(tmp_path)
        job(queue, "interrupted", state="running")
        job(queue, "finished", state="done")
        job(queue, "waiting", state="pending")
        restarted = JobQueue(tmp_path)
        assert restarted.recover() == ["interrupted"]
        reloaded = restarted.load("interrupted")
        assert reloaded is not None and reloaded.state == "pending"
        done = restarted.load("finished")
        assert done is not None and done.state == "done"
        # the re-queue is journalled too
        assert read_job(tmp_path, "interrupted").state == "pending"

    def test_save_is_atomic(self, tmp_path):
        queue = JobQueue(tmp_path)
        item = job(queue, "solid")
        # the write left no temp litter and the file parses standalone
        assert list(tmp_path.glob("*.tmp")) == []
        data = json.loads((tmp_path / "solid.json").read_text())
        assert data["id"] == item.id
