"""End-to-end daemon tests: real sockets, real simulations, real queue.

A :class:`Daemon` helper runs :class:`~repro.serve.app.ServeApp` on a
background event-loop thread so the test thread can drive it with plain
``urllib`` — including genuinely concurrent submissions from multiple
client threads (the coalescing test depends on that).
"""

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve.app import ServeApp
from repro.serve.schema import classify_payload, validate_payload

#: a deliberately tiny matrix so every test daemon simulates in well
#: under a second per cell
MATRIX = {"workloads": ["water"], "configs": ["Base-2L"],
          "instructions": 800, "seed": 5}

DEADLINE_S = 60.0


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_FRESH", raising=False)
    monkeypatch.delenv("REPRO_WARMUP", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return tmp_path


class Daemon:
    """ServeApp on its own event-loop thread, driven over HTTP."""

    def __init__(self, cache_root, workers=1, job_concurrency=2,
                 drain=True):
        self.app = ServeApp(cache_root=cache_root, workers=workers,
                            job_concurrency=job_concurrency)
        self.drain = drain
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)

    def __enter__(self):
        self.thread.start()
        asyncio.run_coroutine_threadsafe(
            self.app.start(port=0, drain=self.drain),
            self.loop).result(timeout=30)
        return self

    def __exit__(self, *exc):
        asyncio.run_coroutine_threadsafe(self.app.stop(),
                                         self.loop).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()

    # ------------------------------------------------------------- client

    def http(self, method, path, body=None, headers=None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.app.port}{path}", data=data,
            method=method, headers=headers or {})
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, dict(response.headers), \
                    response.read()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read()

    def json(self, method, path, body=None, headers=None):
        status, resp_headers, raw = self.http(method, path, body, headers)
        payload = json.loads(raw) if raw else None
        if isinstance(payload, dict):  # every JSON body obeys the schema
            kind = classify_payload(payload)
            assert kind is not None, payload
            assert validate_payload(kind, payload) == [], payload
        return status, resp_headers, payload

    def submit(self, body=MATRIX):
        status, headers, payload = self.json("POST", "/runs", body)
        assert status == 201, payload
        return headers["Location"].rsplit("/", 1)[1], payload

    def wait_done(self, job_id):
        deadline = time.monotonic() + DEADLINE_S
        while time.monotonic() < deadline:
            status, _, payload = self.json("GET", f"/runs/{job_id}")
            assert status == 200, payload
            if payload["state"] in ("done", "failed"):
                return payload
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} never settled")


class TestLifecycle:
    def test_submit_simulate_fetch_revalidate(self, cache):
        with Daemon(cache) as daemon:
            status, _, health = daemon.json("GET", "/healthz")
            assert status == 200 and health["ok"]
            assert health["simulations"] == 0

            job_id, created = daemon.submit()
            assert created["state"] == "pending"
            assert created["total_cells"] == 1
            settled = daemon.wait_done(job_id)
            assert settled["state"] == "done", settled["error"]
            [cell] = settled["cells"]
            assert cell["state"] == "simulated"
            assert "progress" in settled  # GET includes the live block

            # the cell key addresses the record; the key is the ETag
            status, headers, raw = daemon.http(
                "GET", f"/records/{cell['key']}")
            assert status == 200
            assert headers["ETag"] == f'"{cell["key"]}"'
            record = json.loads(raw)
            assert record["workload"] == "water"
            assert validate_payload("record", record) == []

            status, headers, raw = daemon.http(
                "GET", f"/records/{cell['key']}",
                headers={"If-None-Match": f'"{cell["key"]}"'})
            assert status == 304 and raw == b""
            assert headers["ETag"] == f'"{cell["key"]}"'

            status, headers, raw = daemon.http("GET", "/dashboard")
            assert status == 200
            assert headers["Content-Type"].startswith("text/html")
            assert b"<html" in raw and b"water" in raw

            _, _, health = daemon.json("GET", "/healthz")
            assert health["simulations"] == 1
            assert health["jobs"]["done"] == 1

    def test_second_identical_job_is_fully_cached(self, cache):
        with Daemon(cache) as daemon:
            first, _ = daemon.submit()
            daemon.wait_done(first)
            second, _ = daemon.submit()
            settled = daemon.wait_done(second)
            assert [c["state"] for c in settled["cells"]] == ["cached"]
            _, _, health = daemon.json("GET", "/healthz")
            assert health["simulations"] == 1  # nothing re-ran


class TestValidationAndRouting:
    def test_error_responses(self, cache):
        with Daemon(cache, drain=False) as daemon:
            for method, path, body in [
                ("POST", "/runs", {"wrkloads": ["water"]}),  # typo'd field
                ("POST", "/runs", {"workloads": ["no-such"]}),
                ("POST", "/runs", {"instructions": "many"}),
                ("GET", "/records/not..a..key", None),
                ("GET", "/runs/not-alnum", None),
            ]:
                status, _, payload = daemon.json(method, path, body)
                assert status == 400, (path, payload)
                assert payload["error"]
            status, _, _ = daemon.json("GET", "/records/" + "f" * 24)
            assert status == 404
            status, _, _ = daemon.json("GET", "/runs/feedfacebeef")
            assert status == 404
            status, _, _ = daemon.json("DELETE", "/runs")
            assert status == 405
            status, _, _ = daemon.json("GET", "/nope")
            assert status == 404

    def test_non_json_body_rejected(self, cache):
        with Daemon(cache, drain=False) as daemon:
            status, _, raw = daemon.http("POST", "/runs")
            # empty body = all defaults: accepted as a full sweep
            assert status == 201
            request = urllib.request.Request(
                f"http://127.0.0.1:{daemon.app.port}/runs",
                data=b"not json", method="POST")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 400


class TestCoalescer:
    PLAIN = frozenset({"hist"})
    TIMELINE = frozenset({"hist", "timeline"})

    def test_first_claim_owns_later_claims_wait(self):
        from repro.serve.coalesce import Coalescer

        async def scenario():
            coalescer = Coalescer()
            claims = await coalescer.claim({"k1": self.PLAIN,
                                            "k2": self.PLAIN})
            (owned, future), (owned2, _) = claims["k1"], claims["k2"]
            assert owned and owned2 and len(coalescer) == 2
            again, shared = (await coalescer.claim({"k1": self.PLAIN}))["k1"]
            assert not again and shared is future
            coalescer.resolve("k1", "record")
            assert await shared == "record"
            assert len(coalescer) == 1
            # the key is free again after resolution
            assert (await coalescer.claim({"k1": self.PLAIN}))["k1"][0]

        asyncio.run(scenario())

    def test_fail_propagates_to_waiters(self):
        from repro.serve.coalesce import Coalescer

        async def scenario():
            coalescer = Coalescer()
            _, owned = (await coalescer.claim({"k1": self.PLAIN}))["k1"]
            _, shared = (await coalescer.claim({"k1": self.PLAIN}))["k1"]
            coalescer.fail("k1", "run died", owned)
            with pytest.raises(RuntimeError, match="run died"):
                await shared
            # failing an already-settled claim or resolving an unknown
            # key is a no-op
            coalescer.fail("k1", "again", owned)
            coalescer.resolve("k2", "orphan")

        asyncio.run(scenario())

    def test_owner_failure_leaves_a_later_claim_alone(self):
        # the first owner's cleanup runs after its run landed and a
        # second job claimed the key afresh: that claim must survive
        from repro.serve.coalesce import Coalescer

        async def scenario():
            coalescer = Coalescer()
            _, first = (await coalescer.claim({"k1": self.PLAIN}))["k1"]
            coalescer.resolve("k1", "record")
            owned, second = (await coalescer.claim({"k1": self.PLAIN}))["k1"]
            assert owned
            coalescer.fail("k1", "did not complete", first)
            assert not second.done() and len(coalescer) == 1
            coalescer.resolve("k1", "again")
            assert await second == "again"

        asyncio.run(scenario())

    def test_claim_joins_only_an_owner_covering_its_extras(self):
        from repro.serve.coalesce import Coalescer

        async def scenario():
            coalescer = Coalescer()
            rich = (await coalescer.claim({"k1": self.TIMELINE}))["k1"][1]
            _, plain = (await coalescer.claim({"k2": self.PLAIN}))["k2"]
            # a covered request returns at once: it joins k1's richer
            # owner and k2's equal one
            claims = await asyncio.wait_for(
                coalescer.claim({"k1": self.PLAIN, "k2": self.PLAIN}),
                DEADLINE_S)
            assert claims == {"k1": (False, rich), "k2": (False, plain)}
            # a request k2's owner does not cover waits its run out,
            # claiming nothing meanwhile, and then owns every key
            waiting = asyncio.ensure_future(
                coalescer.claim({"k2": self.TIMELINE, "k3": self.PLAIN}))
            for _ in range(3):
                await asyncio.sleep(0)
            assert not waiting.done() and len(coalescer) == 2
            coalescer.resolve("k2", "record without a series")
            claims = await asyncio.wait_for(waiting, DEADLINE_S)
            assert claims["k2"][0] and claims["k3"][0]
            assert claims["k2"][1] is not plain
            assert len(coalescer) == 3

        asyncio.run(scenario())


class TestCoalescing:
    def test_identical_concurrent_submissions_share_one_simulation(
            self, cache):
        clients = 4
        with Daemon(cache, workers=1, job_concurrency=clients) as daemon:
            ids = []
            errors = []
            gate = threading.Barrier(clients, timeout=30)

            def post():
                try:
                    gate.wait()  # all submissions land together
                    ids.append(daemon.submit()[0])
                except Exception as exc:  # surfaced after join
                    errors.append(exc)

            threads = [threading.Thread(target=post)
                       for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors and len(ids) == clients

            settled = [daemon.wait_done(job_id) for job_id in ids]
            for payload in settled:
                assert payload["state"] == "done", payload["error"]
                [cell] = payload["cells"]
                assert cell["state"] in ("simulated", "coalesced", "cached")

            # the acceptance criterion: N identical submissions, ONE run
            assert daemon.app.simulations == 1
            states = sorted(payload["cells"][0]["state"]
                            for payload in settled)
            assert states.count("simulated") == 1
            assert len(list((cache / "runs").glob("*.json"))) == 1

    def test_waiter_sees_the_owner_failure(self, cache, monkeypatch):
        import repro.experiments.runner as runner

        with Daemon(cache, workers=1, job_concurrency=2) as daemon:
            def exploding(spec):
                # hold the owned run until the second job has coalesced
                # onto it, so that job is a waiter, not a second owner
                deadline = time.monotonic() + DEADLINE_S
                while (daemon.app.metrics.value(
                        "repro_coalesce_hits_total") < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                raise RuntimeError(f"owner run exploded on {spec.workload}")

            monkeypatch.setattr(runner, "_simulate_record", exploding)
            ids = [daemon.submit()[0], daemon.submit()[0]]
            settled = [daemon.wait_done(job_id) for job_id in ids]
            assert daemon.app.metrics.value("repro_coalesce_hits_total") == 1
            for payload in settled:
                assert payload["state"] == "failed"
                assert "owner run exploded on water" in payload["error"], \
                    payload["error"]


class TestLateLanding:
    """Records that land while a job holds its claims, and in-flight
    runs without the extras a job asks for."""

    @staticmethod
    def _land_before_lookup(monkeypatch):
        """Make the job's one lookup find the plain ``MATRIX`` record on
        disk, written by an in-process sweep after the job claimed."""
        import repro.serve.app as app_module
        from repro.common.params import base_2l
        from repro.experiments.runner import get_matrix

        real = app_module.plan_matrix

        def landing(**kwargs):
            get_matrix(workloads=["water"], configs=[base_2l(8)],
                       instructions=800, seed=5, quiet=True, jobs=1)
            return real(**kwargs)

        monkeypatch.setattr(app_module, "plan_matrix", landing)

    def test_landed_run_is_served_not_simulated_again(self, cache,
                                                      monkeypatch):
        self._land_before_lookup(monkeypatch)
        with Daemon(cache, workers=1) as daemon:
            job = daemon.wait_done(daemon.submit(MATRIX)[0])
            assert job["state"] == "done", job["error"]
            assert [cell["state"] for cell in job["cells"]] == ["cached"]
            assert daemon.app.simulations == 0
            assert daemon.app.metrics.value("repro_cache_hits_total") == 1

    def test_timeline_job_does_not_take_a_record_without_one(
            self, cache, monkeypatch):
        # the cache key leaves the timeline out, so the plain record
        # lands under the timeline job's key; the timeline job must
        # still simulate its own series
        self._land_before_lookup(monkeypatch)
        with Daemon(cache, workers=1) as daemon:
            job = daemon.wait_done(
                daemon.submit(dict(MATRIX, timeline=256))[0])
            assert job["state"] == "done", job["error"]
            [cell] = job["cells"]
            assert cell["state"] == "simulated"
            assert daemon.app.simulations == 1
            status, _, raw = daemon.http("GET", f"/records/{cell['key']}")
            assert status == 200 and json.loads(raw)["timeline"]

    def test_timeline_job_does_not_join_a_run_without_one(
            self, cache, monkeypatch):
        # the plain job's run stays in flight until the timeline job has
        # reached the coalescer: joining that run would hand the
        # timeline job a record without a series
        import repro.serve.app as app_module
        from repro.serve.coalesce import Coalescer

        real_claim, real_execute = Coalescer.claim, app_module.execute_plan
        reached = threading.Event()
        held = []

        async def claim(self, wanted):
            if any("timeline" in extras for extras in wanted.values()):
                reached.set()
            return await real_claim(self, wanted)

        def execute(plan, **kwargs):
            if not held:
                held.append(plan)
                assert reached.wait(DEADLINE_S)
                for _ in range(3):  # the claim has run up to its wait
                    asyncio.run_coroutine_threadsafe(
                        asyncio.sleep(0), daemon.loop).result(DEADLINE_S)
            return real_execute(plan, **kwargs)

        monkeypatch.setattr(Coalescer, "claim", claim)
        monkeypatch.setattr(app_module, "execute_plan", execute)
        with Daemon(cache, workers=1, job_concurrency=2) as daemon:
            plain = daemon.submit(MATRIX)[0]
            late = daemon.submit(dict(MATRIX, timeline=256))[0]
            late, plain = daemon.wait_done(late), daemon.wait_done(plain)
            assert late["state"] == plain["state"] == "done"
            [cell] = late["cells"]
            assert cell["state"] == "simulated"
            assert daemon.app.simulations == 2
            status, _, raw = daemon.http("GET", f"/records/{cell['key']}")
            assert status == 200 and json.loads(raw)["timeline"]


class TestClaimFirst:
    def test_lookup_failure_fails_the_job_and_releases_its_claims(
            self, cache, monkeypatch):
        import repro.serve.app as app_module

        real = app_module.plan_matrix
        calls = []

        def flaky(**kwargs):
            calls.append(kwargs)
            if len(calls) == 1:
                raise OSError("cache unreadable")
            return real(**kwargs)

        monkeypatch.setattr(app_module, "plan_matrix", flaky)
        with Daemon(cache, workers=1) as daemon:
            broken = daemon.wait_done(daemon.submit()[0])
            assert broken["state"] == "failed"
            assert "cache unreadable" in broken["error"]
            assert len(daemon.app.coalescer) == 0
            # the released claim does not block a second job for the
            # same cell
            job = daemon.wait_done(daemon.submit()[0])
            assert job["state"] == "done", job["error"]
            assert [cell["state"] for cell in job["cells"]] == ["simulated"]
            assert daemon.app.simulations == 1

    def test_no_job_file_is_read_after_recover(self, cache, monkeypatch):
        import repro.serve.queue as queue_module

        def unreadable(*args, **kwargs):
            raise AssertionError("a job file was read after recover()")

        with Daemon(cache, workers=1) as daemon:
            monkeypatch.setattr(queue_module, "read_job", unreadable)
            monkeypatch.setattr(queue_module.Job, "from_json",
                                staticmethod(unreadable))
            job_id, _ = daemon.submit()
            job = daemon.wait_done(job_id)  # claim + status polls
            assert job["state"] == "done", job["error"]
            status, _, health = daemon.json("GET", "/healthz")
            assert status == 200 and health["jobs"]["done"] == 1
            status, _, raw = daemon.http("GET", "/metrics")
            assert status == 200 and b"repro_queue_depth 0" in raw
            status, _, _ = daemon.json("GET", f"/runs/{job_id}/timeline")
            assert status == 200


class TestEndpointLabels:
    def test_labels_stay_low_cardinality(self):
        from repro.serve.app import _endpoint_label

        assert _endpoint_label("/healthz") == "/healthz"
        assert _endpoint_label("/metrics") == "/metrics"
        assert _endpoint_label("/runs") == "/runs"
        assert _endpoint_label("/runs/abc123") == "/runs/:id"
        assert _endpoint_label("/runs/abc123/trace") == "/runs/:id/trace"
        assert _endpoint_label("/records/" + "f" * 24) == "/records/:key"
        assert _endpoint_label("/records/x?pretty=1") == "/records/:key"
        assert _endpoint_label("/wat") == "other"


class TestTelemetry:
    def test_job_trace_spans_share_one_correlation_id(self, cache):
        with Daemon(cache) as daemon:
            status, headers, payload = daemon.json("POST", "/runs", MATRIX)
            assert status == 201
            trace_id = headers["X-Trace-Id"]
            assert len(trace_id) == 16
            assert payload["trace"] == trace_id
            job_id = headers["Location"].rsplit("/", 1)[1]
            daemon.wait_done(job_id)

            status, _, raw = daemon.http("GET", f"/runs/{job_id}/trace")
            assert status == 200
            events = json.loads(raw)["traceEvents"]
            slices = [e for e in events if e["ph"] == "X"]
            stages = {e["name"] for e in slices}
            # the acceptance criterion: the full lifecycle, one trace id
            assert {"validate", "enqueue", "claim", "simulate",
                    "respond"} <= stages
            assert {e["args"]["trace"] for e in slices} == {trace_id}
            assert {e["args"]["job"] for e in slices} == {job_id}
            # spans survive on disk under queue/spans/<job>.jsonl
            span_file = cache / "queue" / "spans" / f"{job_id}.jsonl"
            assert span_file.exists()

    def test_trace_of_unknown_job_is_404_bad_id_400(self, cache):
        with Daemon(cache, drain=False) as daemon:
            status, _, payload = daemon.json("GET",
                                             "/runs/feedfacebeef/trace")
            assert status == 404 and payload["error"]
            status, _, _ = daemon.json("GET", "/runs/not-alnum/trace")
            assert status == 400

    def test_metrics_endpoint_is_valid_prometheus_text(self, cache):
        from repro.obs.metrics import validate_exposition

        with Daemon(cache) as daemon:
            daemon.json("GET", "/healthz")
            job_id, _ = daemon.submit()
            daemon.wait_done(job_id)
            status, headers, raw = daemon.http("GET", "/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith(
                "text/plain; version=0.0.4")
            text = raw.decode("utf-8")
            assert validate_exposition(text) == []
            assert 'repro_http_requests_total{endpoint="/healthz"' in text
            assert "repro_simulations_total 1" in text
            assert "repro_queue_depth 0" in text
            # every lifecycle stage left a latency histogram series
            for stage in ("validate", "enqueue", "claim", "simulate",
                          "respond"):
                assert f'repro_stage_ns_count{{stage="{stage}"}}' in text

    def test_record_requests_and_304s_are_counted(self, cache):
        with Daemon(cache) as daemon:
            job_id, _ = daemon.submit()
            settled = daemon.wait_done(job_id)
            key = settled["cells"][0]["key"]
            daemon.http("GET", f"/records/{key}")
            daemon.http("GET", f"/records/{key}",
                        headers={"If-None-Match": f'"{key}"'})
            metrics = daemon.app.metrics
            assert metrics.value("repro_record_requests_total") == 2
            assert metrics.value("repro_record_304_total") == 1

    def test_live_scrape_during_coalesced_sweep(self, cache):
        """The issue's acceptance test: N identical concurrent POSTs,
        one owned simulation, the rest coalesced/cached; /metrics is
        scrapeable mid-flight and the counters reconcile after drain."""
        from repro.obs.metrics import validate_exposition

        clients = 4
        with Daemon(cache, workers=1, job_concurrency=clients) as daemon:
            ids = []
            errors = []
            scrapes = []
            gate = threading.Barrier(clients + 1, timeout=30)

            def post():
                try:
                    gate.wait()
                    ids.append(daemon.submit()[0])
                except Exception as exc:
                    errors.append(exc)

            def scrape():
                gate.wait()  # scrape while submissions are in flight
                status, _, raw = daemon.http("GET", "/metrics")
                scrapes.append((status, raw.decode("utf-8")))

            threads = [threading.Thread(target=post)
                       for _ in range(clients)]
            threads.append(threading.Thread(target=scrape))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors and len(ids) == clients

            status, text = scrapes[0]
            assert status == 200
            assert validate_exposition(text) == []  # valid mid-flight

            settled = [daemon.wait_done(job_id) for job_id in ids]
            states = [payload["cells"][0]["state"] for payload in settled]
            metrics = daemon.app.metrics

            # exactly one claim owned the simulation; every other
            # submission either coalesced onto it or (if it arrived
            # after the record landed) hit the cache — together they
            # account for the other N-1 clients
            assert metrics.value("repro_coalesce_owned_total") == 1
            assert metrics.value("repro_coalesce_hits_total") == \
                states.count("coalesced")
            assert metrics.value("repro_cache_hits_total") == \
                states.count("cached")
            assert states.count("coalesced") + states.count("cached") == \
                clients - 1
            assert metrics.value("repro_simulations_total") == 1
            assert metrics.value("repro_jobs_total",
                                 outcome="done") == clients

            # after the drain the queue gauges read empty
            status, _, raw = daemon.http("GET", "/metrics")
            text = raw.decode("utf-8")
            assert validate_exposition(text) == []
            assert "repro_queue_depth 0" in text
            assert "repro_coalesce_inflight 0" in text
            _, _, health = daemon.json("GET", "/healthz")
            assert health["queue_depth"] == 0
            assert health["lanes"]["running"] == 0


class TestRestartResume:
    def test_queue_survives_kill_and_restart(self, cache):
        # Stage a half-drained queue: daemon A accepts but never drains
        # (stand-in for a daemon killed mid-work), with one job already
        # marked running and one of its two cells pre-simulated.
        with Daemon(cache, drain=False) as staging:
            two_cell = dict(MATRIX, configs=["Base-2L", "D2M-FS"])
            interrupted, _ = staging.submit(two_cell)
            waiting, _ = staging.submit(MATRIX)
            job = staging.app.queue.load(interrupted)
            job.state = "running"
            job.cells[0].state = "simulated"
            staging.app.queue.save(job)
            from repro.experiments.runner import get_matrix
            get_matrix(workloads=["water"], configs=None,
                       instructions=800, seed=5, quiet=True, jobs=1)

        before = len(list((cache / "runs").glob("*.json")))
        with Daemon(cache, workers=1) as daemon:
            assert daemon.app.recovered_jobs == [interrupted]
            for job_id in (interrupted, waiting):
                settled = daemon.wait_done(job_id)
                assert settled["state"] == "done", settled["error"]
                for cell in settled["cells"]:
                    assert cell["state"] == "cached"  # nothing re-ran
                    status, _, _ = daemon.http("GET",
                                               f"/records/{cell['key']}")
                    assert status == 200  # ...and nothing was lost
            assert daemon.app.simulations == 0
            _, _, health = daemon.json("GET", "/healthz")
            assert health["jobs"] == {"pending": 0, "running": 0,
                                      "done": 2, "failed": 0}
        assert len(list((cache / "runs").glob("*.json"))) == before

    def test_restart_simulates_only_the_missing_cells(self, cache):
        with Daemon(cache, drain=False) as staging:
            job_id, _ = staging.submit(dict(MATRIX,
                                            configs=["Base-2L", "D2M-FS"]))
            from repro.experiments.runner import get_matrix
            from repro.common.params import base_2l
            get_matrix(workloads=["water"], configs=[base_2l(8)],
                       instructions=800, seed=5, quiet=True, jobs=1)

        with Daemon(cache, workers=1) as daemon:
            settled = daemon.wait_done(job_id)
            assert settled["state"] == "done", settled["error"]
            states = {cell["config"]: cell["state"]
                      for cell in settled["cells"]}
            assert states == {"Base-2L": "cached", "D2M-FS": "simulated"}
            assert daemon.app.simulations == 1
