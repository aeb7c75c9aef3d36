"""Unit tests for the parallel run executor."""

from repro.common.params import base_2l
from repro.sim.parallel import RunFailure, execute_runs, job_count
from repro.sim.runner import RunSpec


def _specs(*workloads):
    return [RunSpec(base_2l(2), name, 1_000, seed=3) for name in workloads]


# module-level so the process pool can pickle them by qualified name
def _name_of(spec):
    return spec.workload


def _explode(spec):
    raise ValueError(f"no such run: {spec.workload}")


def _explode_on_lu(spec):
    if spec.workload == "lu":
        raise ValueError("lu is cursed")
    return spec.workload


def _chatty(spec):
    print(f"stdout from {spec.workload}")
    import sys
    print(f"stderr from {spec.workload}", file=sys.stderr)
    return spec.workload


def _chatty_explode(spec):
    print(f"partial output from {spec.workload}")
    raise ValueError("boom")


class TestJobCount:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert job_count(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert job_count() == 7

    def test_cpu_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert job_count() >= 1

    def test_zero_means_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert job_count(0) == 7


class TestSerialPath:
    def test_results_indexed_by_spec(self):
        results, failures = execute_runs(_specs("water", "lu"), _name_of,
                                         jobs=1)
        assert results == {0: "water", 1: "lu"}
        assert failures == []

    def test_failure_isolation(self):
        results, failures = execute_runs(_specs("water", "lu", "fft"),
                                         _explode_on_lu, jobs=1)
        assert results == {0: "water", 2: "fft"}
        [failure] = failures
        assert isinstance(failure, RunFailure)
        assert failure.workload == "lu"
        assert "cursed" in failure.error
        assert "lu" in str(failure)

    def test_callbacks_fire_in_order(self):
        seen = []
        landed = []
        execute_runs(
            _specs("water", "lu"), _name_of, jobs=1,
            progress=lambda done, total, spec: seen.append(
                (done, total, spec.workload)),
            on_result=lambda index, payload: landed.append(payload),
        )
        assert seen == [(1, 2, "water"), (2, 2, "lu")]
        assert landed == ["water", "lu"]

    def test_empty_specs(self):
        assert execute_runs([], _name_of, jobs=4) == ({}, [])


class TestParallelPath:
    def test_two_workers_all_results(self):
        results, failures = execute_runs(_specs("water", "lu", "fft"),
                                         _name_of, jobs=2)
        assert results == {0: "water", 1: "lu", 2: "fft"}
        assert failures == []

    def test_two_workers_failures_do_not_kill_sweep(self):
        results, failures = execute_runs(_specs("water", "lu", "fft"),
                                         _explode_on_lu, jobs=2)
        assert results == {0: "water", 2: "fft"}
        assert [f.workload for f in failures] == ["lu"]

    def test_all_failures_reported(self):
        results, failures = execute_runs(_specs("water", "lu"), _explode,
                                         jobs=2)
        assert results == {}
        assert sorted(f.workload for f in failures) == ["lu", "water"]


class TestWorkerOutputCapture:
    def test_output_replayed_as_contiguous_blocks(self, capfd):
        results, failures = execute_runs(_specs("water", "lu", "fft"),
                                         _chatty, jobs=2)
        assert failures == []
        assert len(results) == 3
        err = capfd.readouterr().err
        # each run's stdout+stderr arrives as one labelled block, never
        # interleaved with another run's lines
        for workload in ("water", "lu", "fft"):
            block = (f"-- output from {workload} on Base-2L (seed 3) --\n"
                     f"stdout from {workload}\nstderr from {workload}")
            assert block in err

    def test_on_output_callback_overrides_default(self, capfd):
        captured = {}
        execute_runs(_specs("water", "lu"), _chatty, jobs=2,
                     on_output=lambda index, text: captured.update(
                         {index: text}))
        assert set(captured) == {0, 1}
        assert "stdout from water" in captured[0]
        assert capfd.readouterr().err == ""  # default printer suppressed

    def test_failed_run_output_still_surfaces(self, capfd):
        results, failures = execute_runs(_specs("water", "lu"),
                                         _chatty_explode, jobs=2)
        assert results == {}
        assert len(failures) == 2
        assert all("ValueError: boom" in f.error for f in failures)
        err = capfd.readouterr().err
        assert "partial output from water" in err
        assert "partial output from lu" in err

    def test_serial_path_does_not_capture(self, capfd):
        execute_runs(_specs("water"), _chatty, jobs=1)
        out = capfd.readouterr()
        assert "stdout from water" in out.out  # passes straight through
        assert "-- output from" not in out.err


class TestFailureSummary:
    def test_summary_is_exception_line(self):
        failure = RunFailure("water", "D2M-FS", 1, error=(
            "Traceback (most recent call last):\n"
            "  File \"x.py\", line 1, in run\n"
            "ValueError: boom\n"))
        assert failure.summary() == "ValueError: boom"
        assert "ValueError: boom" in str(failure)

    def test_summary_skips_indented_forensic_report(self):
        """Sanitizer violations carry a multi-line indented report; the
        summary must be the exception line, not the report's last row."""
        failure = RunFailure("water", "D2M-FS", 1, error=(
            "Traceback (most recent call last):\n"
            "  File \"x.py\", line 1, in run\n"
            "SanitizerViolation: sanitizer: line 0x40 has 2 masters\n"
            "  detected after access #7 (event seq 9, 9 events recorded)\n"
            "  last events touching region 0x1:\n"
            "    [     0] access           node=0 region=0x1\n"))
        assert failure.summary() == (
            "SanitizerViolation: sanitizer: line 0x40 has 2 masters")

    def test_empty_error(self):
        assert RunFailure("water", "D2M-FS", 1, error="").summary() == "?"


# ------------------------------------------------------------------ heartbeat
# Regression: sweeps used to hand workers their heartbeat directory
# through process-global state (os.environ, then a thread-local
# override); two concurrent sweeps in one process could cross heartbeat
# dirs.  The directory now rides on each RunSpec as ``progress_dir``.

def _beat_specs(hb_dir, *workloads):
    return [RunSpec(base_2l(2), name, 1_000, seed=3,
                    progress_dir=str(hb_dir)) for name in workloads]


def _progress_env():
    import os

    return sorted(name for name in os.environ
                  if name.startswith("REPRO_PROGRESS"))


def _run_and_probe_env(spec):
    """The real worker path, then the worker's progress variables."""
    from repro.sim.runner import run_spec

    run_spec(spec)
    return _progress_env()


def _beaten_runs(hb_dir):
    from repro.obs.progress import read_heartbeats

    return {beat["run"] for beat in read_heartbeats(str(hb_dir))}


def _overlapping_sweeps(tmp_path, jobs, fn=_run_and_probe_env):
    """Two concurrent sweeps on disjoint workloads, each with its own
    heartbeat directory; returns {dir: (workloads, results)}."""
    import threading

    sweeps = {tmp_path / "a": ("water", "lu"), tmp_path / "b": ("fft",
                                                              "radix")}
    out = {}

    def _sweep(hb_dir, workloads):
        results, failures = execute_runs(_beat_specs(hb_dir, *workloads),
                                         fn, jobs=jobs)
        assert not failures
        out[hb_dir] = (workloads, results)

    for hb_dir in sweeps:
        hb_dir.mkdir()
    threads = [threading.Thread(target=_sweep, args=item)
               for item in sweeps.items()]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert set(out) == set(sweeps)
    return out


class TestHeartbeatDirThreading:
    def test_serial_path_uses_explicit_dir(self, tmp_path):
        results, failures = execute_runs(_beat_specs(tmp_path, "water"),
                                         _run_and_probe_env, jobs=1)
        assert not failures
        assert _beaten_runs(tmp_path) == {"water/Base-2L"}
        # the directory never enters the process environment
        assert results == {0: []}
        assert _progress_env() == []

    def test_workers_beat_into_spec_dir(self, tmp_path):
        results, failures = execute_runs(
            _beat_specs(tmp_path, "water", "lu"), _run_and_probe_env,
            jobs=2)
        assert not failures
        assert _beaten_runs(tmp_path) <= {"water/Base-2L", "lu/Base-2L"}
        assert list(tmp_path.glob("hb-*.json"))
        # no worker's environment gained a progress variable either
        assert list(results.values()) == [[], []]
        assert _progress_env() == []

    def test_two_overlapping_serial_sweeps_stay_separate(self, tmp_path):
        import threading

        barrier = threading.Barrier(2, timeout=30)

        def _in_step(spec):
            barrier.wait()  # both sweeps are mid-flight simultaneously
            return _run_and_probe_env(spec)

        out = _overlapping_sweeps(tmp_path, jobs=1, fn=_in_step)
        for hb_dir, (workloads, results) in out.items():
            assert _beaten_runs(hb_dir) <= {f"{w}/Base-2L"
                                            for w in workloads}
            assert _beaten_runs(hb_dir)
            assert list(results.values()) == [[], []]
        assert _progress_env() == []

    def test_two_overlapping_pool_sweeps_stay_separate(self, tmp_path):
        out = _overlapping_sweeps(tmp_path, jobs=2)
        for hb_dir, (workloads, results) in out.items():
            assert _beaten_runs(hb_dir) <= {f"{w}/Base-2L"
                                            for w in workloads}
            assert _beaten_runs(hb_dir)
            assert list(results.values()) == [[], []]
        assert _progress_env() == []

    def test_empty_progress_dir_means_no_heartbeat(self, monkeypatch):
        import repro.sim.runner as runner

        seen = {}
        monkeypatch.setattr(
            runner, "_simulate",
            lambda spec, observers, heartbeat, batched: seen.update(
                heartbeat=heartbeat))
        runner.run_spec(_specs("water")[0])
        assert seen["heartbeat"] is None
