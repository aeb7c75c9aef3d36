"""Tests for sweep progress: heartbeats, rendering, progress.jsonl."""

import io
import json
import os
import subprocess
import sys

from repro.common.params import d2m_ns_r
from repro.experiments.records import record_from_outcome
from repro.obs.progress import (
    PROGRESS_JSONL_MAX_BYTES,
    Heartbeat,
    SweepProgress,
    _pid_alive,
    heartbeat_in_directory,
    read_heartbeats,
)
from repro.sim.runner import RunSpec, run_spec


def _dead_pid() -> int:
    """A PID that definitely no longer names a live process."""
    proc = subprocess.Popen([sys.executable, "-c", ""])
    proc.wait()
    return proc.pid


class TestHeartbeat:
    def test_in_directory_requires_directory(self, tmp_path):
        assert heartbeat_in_directory("", "x") is None
        assert heartbeat_in_directory(str(tmp_path / "missing"),
                                      "x") is None
        beat = heartbeat_in_directory(str(tmp_path), "x")
        assert beat.path == str(tmp_path / f"hb-{os.getpid()}.json")

    def test_beat_writes_rate_limited(self, tmp_path):
        path = tmp_path / "hb-1.json"
        beat = Heartbeat(str(path), "tpcc/D2M-NS-R", min_interval_s=3600)
        beat.beat(100, force=True)
        record = json.loads(path.read_text())
        assert record["run"] == "tpcc/D2M-NS-R"
        assert record["accesses"] == 100
        beat.beat(200)  # inside the interval: not written
        assert json.loads(path.read_text())["accesses"] == 100
        beat.finish(300)  # finish always writes
        assert json.loads(path.read_text())["accesses"] == 300

    def test_trace_id_rides_in_the_payload(self, tmp_path):
        path = tmp_path / "hb-2.json"
        beat = Heartbeat(str(path), "water/D2M-NS-R", trace="a1b2" * 4)
        beat.beat(10, force=True)
        assert json.loads(path.read_text())["trace"] == "a1b2" * 4
        # untraced runs omit the field entirely
        plain = Heartbeat(str(path), "water/D2M-NS-R")
        plain.beat(10, force=True)
        assert "trace" not in json.loads(path.read_text())
        # heartbeat_in_directory threads the id through
        assert heartbeat_in_directory(str(tmp_path), "x",
                                      trace="t" * 16).trace == "t" * 16

    def test_chunk_boundaries_drive_beats(self, tmp_path):
        path = tmp_path / "hb-3.json"
        beat = Heartbeat(str(path), "water/D2M-NS-R", min_interval_s=0.0)
        beat.on_chunk(10, 20, 4096)  # beats the stream position
        assert json.loads(path.read_text())["accesses"] == 4096
        beat.on_chunk(15, 30, 5000)
        beat.finalize()  # the final beat repeats the last position
        assert json.loads(path.read_text())["accesses"] == 5000

    def test_heartbeat_only_run_beats_to_the_end(self, tmp_path):
        # a sweep run with a progress dir but no telemetry still ends on
        # a beat of its access count, and its record stays hist-free
        spec = RunSpec(d2m_ns_r(2), "water", 1500, seed=3, warmup=0,
                       progress_dir=str(tmp_path))
        outcome = run_spec(spec)
        beats = read_heartbeats(str(tmp_path))
        assert [b["accesses"] for b in beats] == [outcome.result.accesses]
        assert record_from_outcome(outcome, "test").hists == {}

    def test_read_heartbeats_tolerates_garbage(self, tmp_path):
        (tmp_path / "hb-1.json").write_text('{"run": "a", "accesses": 1}')
        (tmp_path / "hb-2.json").write_text('{"torn')
        (tmp_path / "not-a-beat.txt").write_text("x")
        beats = read_heartbeats(str(tmp_path))
        assert len(beats) == 1
        assert beats[0]["run"] == "a"

    def test_read_heartbeats_missing_directory(self, tmp_path):
        assert read_heartbeats(str(tmp_path / "nope")) == []


class TestStaleHeartbeats:
    def test_pid_alive_probes(self):
        assert _pid_alive(os.getpid())
        assert not _pid_alive(_dead_pid())
        assert not _pid_alive(0)   # never signal process groups
        assert not _pid_alive(-1)
        assert not _pid_alive(2 ** 40)  # out-of-range pids are dead

    def test_live_fresh_heartbeat_is_not_stale(self, tmp_path):
        (tmp_path / "hb-1.json").write_text(json.dumps(
            {"pid": os.getpid(), "run": "a", "ips": 100.0}))
        beats = read_heartbeats(str(tmp_path))
        assert len(beats) == 1
        assert beats[0]["stale"] is False

    def test_dead_pid_marks_stale(self, tmp_path):
        """A worker killed mid-sweep leaves its file behind — flag it."""
        (tmp_path / "hb-9.json").write_text(json.dumps(
            {"pid": _dead_pid(), "run": "tpcc/D2M-FS", "ips": 900.0}))
        beats = read_heartbeats(str(tmp_path))
        assert beats[0]["stale"] is True

    def test_old_mtime_marks_stale_even_with_live_pid(self, tmp_path):
        path = tmp_path / "hb-1.json"
        path.write_text(json.dumps(
            {"pid": os.getpid(), "run": "wedged", "ips": 500.0}))
        old = path.stat().st_mtime - 120
        os.utime(path, (old, old))
        beats = read_heartbeats(str(tmp_path), stale_after_s=30.0)
        assert beats[0]["stale"] is True

    def test_render_shows_stalled_and_excludes_its_rate(self, tmp_path):
        (tmp_path / "hb-1.json").write_text(json.dumps(
            {"pid": os.getpid(), "run": "alive", "ips": 2000.0}))
        (tmp_path / "hb-2.json").write_text(json.dumps(
            {"pid": _dead_pid(), "run": "deadlane", "ips": 9000.0}))
        progress = SweepProgress(total=4, stream=io.StringIO(),
                                 heartbeat_dir=str(tmp_path), inplace=False)
        line = progress.render()
        assert "running alive" in line
        assert "stalled deadlane" in line
        assert "2.0k acc/s" in line  # the dead lane's 9k is not counted

    def test_close_cleans_up_heartbeat_files(self, tmp_path):
        (tmp_path / "hb-1.json").write_text("{}")
        (tmp_path / "hb-2.json").write_text("{}")
        (tmp_path / "progress.jsonl").write_text("")
        progress = SweepProgress(total=1, stream=io.StringIO(),
                                 heartbeat_dir=str(tmp_path), inplace=False)
        progress.close()
        assert not list(tmp_path.glob("hb-*.json"))
        assert (tmp_path / "progress.jsonl").exists()  # only beats removed


class TestSweepProgress:
    def test_per_line_mode_prints_each_completion(self, tmp_path):
        stream = io.StringIO()
        progress = SweepProgress(total=2, stream=stream, inplace=False)
        progress.run_done(1, 2, "tpcc", "Base-2L")
        progress.run_done(2, 2, "tpcc", "D2M-NS-R")
        progress.close()
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("[  1/2] tpcc on Base-2L")
        assert lines[1].startswith("[  2/2] tpcc on D2M-NS-R")

    def test_inplace_mode_rewrites_one_line(self, tmp_path):
        stream = io.StringIO()
        progress = SweepProgress(total=2, stream=stream, inplace=True)
        progress.run_done(1, 2, "tpcc", "Base-2L")
        progress.close()
        assert "\r" in stream.getvalue()
        assert stream.getvalue().endswith("\n")

    def test_progress_jsonl_records_lifecycle(self, tmp_path):
        jsonl = tmp_path / "progress.jsonl"
        progress = SweepProgress(total=1, stream=io.StringIO(),
                                 jsonl_path=str(jsonl), inplace=False)
        progress.run_done(1, 1, "tpcc", "D2M-NS-R")
        progress.close()
        events = [json.loads(line)
                  for line in jsonl.read_text().splitlines()]
        assert [e["event"] for e in events] == ["sweep.start", "run.done",
                                                "sweep.end"]
        assert events[1]["workload"] == "tpcc"
        assert events[1]["done"] == 1
        assert all("ts" in e for e in events)

    def test_render_folds_in_heartbeats(self, tmp_path):
        (tmp_path / "hb-1.json").write_text(json.dumps(
            {"run": "tpcc/D2M-NS", "ips": 1500.0, "accesses": 10}))
        progress = SweepProgress(total=4, stream=io.StringIO(),
                                 heartbeat_dir=str(tmp_path), inplace=False)
        progress.done = 1
        line = progress.render()
        assert "[1/4]" in line
        assert "tpcc/D2M-NS" in line
        assert "acc/s" in line

    def test_eta_needs_at_least_one_completion(self):
        progress = SweepProgress(total=3, stream=io.StringIO(),
                                 inplace=False)
        assert progress.eta_s() is None
        progress.done = 1
        assert progress.eta_s() is not None


class TestProgressJsonlRotation:
    def _fill(self, path, cap, sweeps=5, runs=40):
        for _ in range(sweeps):
            progress = SweepProgress(total=runs, stream=io.StringIO(),
                                     jsonl_path=str(path), inplace=False,
                                     jsonl_max_bytes=cap)
            with progress:
                for i in range(runs):
                    progress.run_done(i + 1, runs, "tpcc", "D2M-NS-R")

    def test_cap_holds_across_many_sweeps(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        cap = 2048
        self._fill(path, cap)
        # one record may land after the size check, so the live file is
        # bounded by cap + one record; the rotated generation likewise
        assert path.stat().st_size <= cap + 512
        rotated = tmp_path / "progress.jsonl.1"
        assert rotated.exists()
        assert rotated.stat().st_size <= cap + 512
        # exactly one rotated generation is kept
        assert sorted(p.name for p in tmp_path.glob("progress.jsonl*")) == [
            "progress.jsonl", "progress.jsonl.1"]

    def test_rotated_files_stay_parsable(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        self._fill(path, 2048)
        for name in ("progress.jsonl", "progress.jsonl.1"):
            for line in (tmp_path / name).read_text().splitlines():
                assert json.loads(line)["event"]

    def test_zero_cap_disables_rotation(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        self._fill(path, 0, sweeps=3, runs=30)
        assert not (tmp_path / "progress.jsonl.1").exists()

    def test_default_cap(self):
        progress = SweepProgress(total=1, stream=io.StringIO(),
                                 inplace=False)
        assert progress.jsonl_max_bytes == PROGRESS_JSONL_MAX_BYTES
