"""Plan/execute sweep API, tmp-litter reaper, concurrent-sweep isolation."""

import json
import os
import threading
import time

import pytest

import repro.experiments.runner as runner
from repro.common.params import base_2l, d2m_fs
from repro.experiments.runner import (
    TMP_ORPHAN_AGE_S,
    execute_plan,
    get_matrix,
    plan_matrix,
    reap_orphan_tmp,
    run_cache_key,
)
from repro.obs.progress import read_heartbeats


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_FRESH", raising=False)
    monkeypatch.delenv("REPRO_WARMUP", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return tmp_path


class TestOrphanTmpReaper:
    def plant(self, directory, name, age_s):
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / name
        path.write_text("{}")
        stamp = time.time() - age_s
        os.utime(path, (stamp, stamp))
        return path

    def test_stale_removed_fresh_kept(self, cache):
        runs = cache / "runs"
        stale = self.plant(runs, "abc.json.x1y2.tmp", TMP_ORPHAN_AGE_S + 60)
        fresh = self.plant(runs, "def.json.z9.tmp", 5)
        record = self.plant(runs, "abc.json", TMP_ORPHAN_AGE_S + 60)
        removed = reap_orphan_tmp()
        assert removed == [stale]
        assert not stale.exists()
        assert fresh.exists()  # may be a live writer mid-flight
        assert record.exists()  # real records are never touched

    def test_explicit_directory_and_age(self, tmp_path):
        target = tmp_path / "elsewhere"
        old = self.plant(target, "a.tmp", 100)
        young = self.plant(target, "b.tmp", 10)
        removed = reap_orphan_tmp(directory=target, max_age_s=50)
        assert removed == [old]
        assert young.exists()

    def test_missing_directory_is_quiet(self, tmp_path):
        assert reap_orphan_tmp(directory=tmp_path / "nope") == []

    def test_sweep_entry_reaps(self, cache, monkeypatch):
        """`repro sweep` clears crash litter before it starts."""
        from repro import cli

        stale = self.plant(cache / "runs", "zzz.json.q.tmp",
                           TMP_ORPHAN_AGE_S + 60)
        assert cli.main(["sweep", "--workloads", "water",
                         "--instructions", "800", "--jobs", "1"]) == 0
        assert not stale.exists()


class TestPlanMatrix:
    ARGS = dict(workloads=["water"], configs=[base_2l(2)],
                instructions=1_000, seed=5)

    def test_pending_then_cached_split(self, cache):
        plan = plan_matrix(**self.ARGS)
        assert plan.total == 1 and plan.cached == 0
        [item] = plan.pending
        assert item.key == run_cache_key("water", "Base-2L", 1_000, 5,
                                         plan.warmup, nodes=2)
        assert item.path.name == item.key + ".json"
        assert execute_plan(plan, jobs=1, quiet=True) == []
        assert plan.matrix["water"]["Base-2L"].workload == "water"

        again = plan_matrix(**self.ARGS)
        assert again.cached == 1 and not again.pending
        assert (again.matrix["water"]["Base-2L"].to_json()
                == plan.matrix["water"]["Base-2L"].to_json())

    def test_empty_workload_list_plans_nothing(self, cache, monkeypatch):
        # only None means "every workload"
        monkeypatch.delenv("REPRO_WORKLOADS", raising=False)
        plan = plan_matrix(workloads=[], configs=[base_2l(2)],
                           instructions=100)
        assert plan.total == 0 and plan.pending == [] and plan.matrix == {}
        assert get_matrix(workloads=[], configs=[base_2l(2)],
                          instructions=100, quiet=True) == {}
        every = plan_matrix(configs=[base_2l(2)], instructions=100)
        assert every.workloads == runner.sweep_workloads()
        assert len(every.pending) == len(every.workloads) > 0

    def test_explicit_warmup_pins_keys_against_env(self, cache, monkeypatch):
        pinned = plan_matrix(warmup=123, **self.ARGS)
        monkeypatch.setenv("REPRO_WARMUP", "777")
        still_pinned = plan_matrix(warmup=123, **self.ARGS)
        env_driven = plan_matrix(**self.ARGS)
        assert pinned.pending[0].key == still_pinned.pending[0].key
        assert env_driven.warmup == 777
        assert env_driven.pending[0].key != pinned.pending[0].key

    def test_fresh_flag_overrides_cache(self, cache, monkeypatch):
        plan = plan_matrix(**self.ARGS)
        execute_plan(plan, jobs=1, quiet=True)
        monkeypatch.delenv("REPRO_FRESH", raising=False)
        assert not plan_matrix(fresh=True, **self.ARGS).cached
        assert plan_matrix(fresh=False, **self.ARGS).cached == 1
        monkeypatch.setenv("REPRO_FRESH", "1")
        assert not plan_matrix(**self.ARGS).cached  # None defers to env
        assert plan_matrix(fresh=False, **self.ARGS).cached == 1

    def test_get_matrix_equals_plan_plus_execute(self, cache):
        configs = [base_2l(2), d2m_fs(2)]
        via_plan = plan_matrix(workloads=["water"], configs=configs,
                               instructions=1_000, seed=5)
        assert execute_plan(via_plan, jobs=1, quiet=True) == []
        via_get = get_matrix(workloads=["water"], configs=configs,
                             instructions=1_000, seed=5, quiet=True, jobs=1)
        assert ({c: r.to_json() for c, r in via_get["water"].items()}
                == {c: r.to_json() for c, r in via_plan.matrix["water"].items()})

    def test_matrix_parallel_matches_serial(self, cache):
        args = dict(workloads=["water", "lu"],
                    configs=[base_2l(2), d2m_fs(2)], instructions=1_000,
                    seed=2, quiet=True)
        serial = get_matrix(jobs=1, **args)
        parallel = get_matrix(jobs=2, fresh=True, **args)
        assert ({w: {c: r.to_json() for c, r in row.items()}
                 for w, row in parallel.items()}
                == {w: {c: r.to_json() for c, r in row.items()}
                    for w, row in serial.items()})

    def test_on_record_fires_per_landing(self, cache):
        landed = []
        plan = plan_matrix(workloads=["water"],
                           configs=[base_2l(2), d2m_fs(2)],
                           instructions=1_000, seed=5)
        execute_plan(plan, jobs=1, quiet=True,
                     on_record=lambda item, record:
                     landed.append((item.key, record.config)))
        assert sorted(cfg for _, cfg in landed) == ["Base-2L", "D2M-FS"]
        for key, _ in landed:
            json.loads((cache / "runs" / (key + ".json")).read_text())

    def test_custom_jsonl_path(self, cache, tmp_path):
        target = tmp_path / "own-progress.jsonl"
        plan = plan_matrix(**self.ARGS)
        execute_plan(plan, jobs=1, quiet=True, jsonl_path=str(target))
        events = [json.loads(line) for line
                  in target.read_text().splitlines()]
        assert events[0]["event"] == "sweep.start"
        assert not (cache / "progress.jsonl").exists()


class TestConcurrentSweepIsolation:
    """Regression: concurrent sweeps used to race on os.environ for the
    heartbeat directory; each plan now stamps its own onto its specs."""

    def test_overlapping_sweeps_keep_separate_heartbeat_dirs(
            self, cache, monkeypatch):
        seen = {}
        barrier = threading.Barrier(2, timeout=30)
        real = runner._simulate_record

        def observing(spec):
            barrier.wait()  # both sweeps are mid-flight simultaneously
            payload = real(spec)
            # the run's final beat is on disk; nothing else may be
            seen[spec.workload] = (spec.progress_dir, [
                beat["run"] for beat in read_heartbeats(spec.progress_dir)])
            return payload

        monkeypatch.setattr(runner, "_simulate_record", observing)

        def sweep(workload, hb_dir):
            plan = plan_matrix(workloads=[workload], configs=[base_2l(2)],
                               instructions=800, seed=5)
            assert execute_plan(plan, jobs=1, quiet=True,
                                heartbeat_dir=hb_dir) == []

        dirs = {wl: str(cache / f"hb-{wl}") for wl in ("water", "lu")}
        for path in dirs.values():
            os.makedirs(path)
        threads = [threading.Thread(target=sweep, args=(wl, dirs[wl]))
                   for wl in dirs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for workload, hb_dir in dirs.items():
            assert seen[workload] == (hb_dir, [f"{workload}/Base-2L"])
        # the process environment was never written
        assert not [name for name in os.environ
                    if name.startswith("REPRO_PROGRESS")]

    def test_overlapping_pool_sweeps_keep_separate_heartbeat_dirs(
            self, cache):
        seen = {}

        def sweep(workloads, hb_dir):
            def on_record(item, record):
                # the worker's final beat landed before its result did
                seen.setdefault(hb_dir, set()).update(
                    beat["run"] for beat in read_heartbeats(hb_dir))

            plan = plan_matrix(workloads=workloads, configs=[base_2l(2)],
                               instructions=800, seed=5)
            assert execute_plan(plan, jobs=2, quiet=True,
                                heartbeat_dir=hb_dir,
                                on_record=on_record) == []

        dirs = {("water", "lu"): str(cache / "hb-a"),
                ("fft", "radix"): str(cache / "hb-b")}
        for path in dirs.values():
            os.makedirs(path)
        threads = [threading.Thread(target=sweep, args=(list(wls), hb_dir))
                   for wls, hb_dir in dirs.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for workloads, hb_dir in dirs.items():
            assert seen[hb_dir]
            assert seen[hb_dir] <= {f"{w}/Base-2L" for w in workloads}
        assert not [name for name in os.environ
                    if name.startswith("REPRO_PROGRESS")]


class TestNodeCountKey:
    def test_four_node_plan_misses_eight_node_record(self, cache):
        """A same-named config at another node count is another cell."""
        args = dict(workloads=["water"], instructions=800, seed=5,
                    warmup=400)
        eight = plan_matrix(configs=[base_2l(8)], **args)
        assert execute_plan(eight, jobs=1, quiet=True) == []
        assert plan_matrix(configs=[base_2l(8)], **args).cached == 1
        four = plan_matrix(configs=[base_2l(4)], **args)
        assert (len(four.pending), four.cached) == (1, 0)
