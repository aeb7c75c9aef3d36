"""Equivalence tests for the batched fast-path driver (repro.sim.batch).

The contract under test: ``Simulator.run(..., batched=True)`` produces
bit-identical statistics to the scalar loop — stats tree, energy
counts, latency buckets, per-core totals, model cycles, and telemetry
histogram digests — for every system kind, with and without warm-up,
with and without tracers attached.
"""

import pytest

from repro.common.params import all_configs, base_2l, d2m_fs, d2m_ns_r
from repro.core.hierarchy import build_hierarchy
from repro.obs.telemetry import Telemetry
from repro.sim import batch
from repro.sim.batch import run_batched
from repro.sim.bench import BENCH_CONFIGS, BENCH_WORKLOADS, result_snapshot
from repro.sim.perf import PerfModel
from repro.sim.simulator import Simulator
from repro.workloads.registry import make_workload


def _config(name):
    return {c.name: c for c in all_configs()}[name]


def _simulate(config, workload_name, batched, *, instructions=900,
              warmup=300, telemetry=False, sanitize=False, tracer=None,
              check_values=True, nodes=None, seed=3, chunk=None):
    hierarchy = build_hierarchy(config)
    if sanitize:
        from repro.analysis.sanitizer import attach_sanitizer
        attach_sanitizer(hierarchy)
    if tracer is not None:
        from repro.obs.trace import attach_tracer
        attach_tracer(hierarchy, tracer)
    tele = Telemetry(sample_every=32).attach(hierarchy) if telemetry else None
    simulator = Simulator(hierarchy, check_values=check_values,
                          telemetry=tele)
    workload = make_workload(workload_name, config.nodes, hierarchy.amap,
                             seed=seed)
    if chunk is not None:
        result = run_batched(simulator, workload, instructions, seed=seed,
                             warmup=warmup, chunk=chunk)
    else:
        result = simulator.run(workload, instructions, seed=seed,
                               warmup=warmup, batched=batched)
    perf = PerfModel(config.ooo).summarize(result)
    snap = result_snapshot(result, perf.cycles)
    if tele is not None:
        snap["hists"] = tele.hists.summaries()
    return snap


class TestPinnedMatrixEquivalence:
    @pytest.mark.parametrize("config_name", BENCH_CONFIGS)
    @pytest.mark.parametrize("workload_name", BENCH_WORKLOADS)
    def test_bit_identical(self, config_name, workload_name):
        config = _config(config_name)
        scalar = _simulate(config, workload_name, False)
        batched = _simulate(config, workload_name, True)
        assert scalar == batched

    @pytest.mark.parametrize("config_name", BENCH_CONFIGS)
    @pytest.mark.parametrize("variant", ["chunk97", "no-numpy"])
    def test_bit_identical_across_chunking(self, config_name, variant,
                                           monkeypatch):
        # chunk=97 forces many chunk flushes and puts the ROI boundary
        # (after 300 warm-up instructions) inside a later chunk; both
        # variants take the list-comprehension path instead of numpy
        config = _config(config_name)
        scalar = _simulate(config, "mix1", False)
        if variant == "no-numpy":
            monkeypatch.setattr(batch, "_np", None)
            batched = _simulate(config, "mix1", True)
        else:
            batched = _simulate(config, "mix1", True, chunk=97)
        assert scalar == batched

    def test_bit_identical_with_telemetry(self):
        # histogram digests are part of the contract when telemetry is on
        for config_name in ("Base-2L", "D2M-NS-R"):
            config = _config(config_name)
            scalar = _simulate(config, "mix1", False, telemetry=True)
            batched = _simulate(config, "mix1", True, telemetry=True)
            assert scalar == batched, config_name

    def test_bit_identical_without_warmup(self):
        config = _config("D2M-FS")
        scalar = _simulate(config, "tpcc", False, warmup=0)
        batched = _simulate(config, "tpcc", True, warmup=0)
        assert scalar == batched

    def test_bit_identical_without_value_checking(self):
        # check_values=False is the production sweep configuration
        config = _config("D2M-NS-R")
        scalar = _simulate(config, "swaptions", False, check_values=False)
        batched = _simulate(config, "swaptions", True, check_values=False)
        assert scalar == batched


class TestTracerGating:
    def test_sanitizer_stays_bit_identical(self):
        # the sanitizer is an unsafe tracer: the batched run goes
        # all-slow, and must still match the sanitized scalar run
        scalar = _simulate(d2m_ns_r(2), "fft", False, sanitize=True,
                           instructions=600, warmup=200)
        batched = _simulate(d2m_ns_r(2), "fft", True, sanitize=True,
                            instructions=600, warmup=200)
        assert scalar == batched

    def test_unsafe_tracer_sees_every_access(self):
        # a TraceRecorder has no fast_path_safe marker, so the batched
        # driver must delegate every access to the protocol — the
        # recorder's access counter must match the scalar run's exactly
        from repro.obs.trace import TraceRecorder
        scalar_rec = TraceRecorder()
        scalar = _simulate(d2m_fs(2), "fft", False, tracer=scalar_rec,
                           instructions=600, warmup=200)
        batched_rec = TraceRecorder()
        batched = _simulate(d2m_fs(2), "fft", True, tracer=batched_rec,
                            instructions=600, warmup=200)
        assert scalar == batched
        assert scalar_rec.access_index > 0
        assert batched_rec.access_index == scalar_rec.access_index

    def test_telemetry_is_fast_path_safe(self):
        assert Telemetry().fast_path_safe is True

    def test_fanout_safety_is_conjunction(self):
        from repro.obs.trace import TracerFanout, TraceRecorder
        safe = Telemetry()
        assert TracerFanout([safe]).fast_path_safe is True
        assert TracerFanout([safe, TraceRecorder()]).fast_path_safe is False


class TestFastPathEngagement:
    def test_fast_path_actually_skips_the_protocol(self):
        # guard against a silently all-slow batched driver: on a cache-
        # friendly workload most accesses must bypass protocol.access
        config = d2m_ns_r(2)
        hierarchy = build_hierarchy(config)
        protocol = hierarchy.protocol
        calls = 0
        original = protocol.access

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        protocol.access = counting
        simulator = Simulator(hierarchy)
        workload = make_workload("swaptions", config.nodes, hierarchy.amap,
                                 seed=3)
        result = simulator.run(workload, 2000, seed=3, batched=True)
        assert calls < result.accesses / 2

    def test_baseline_fast_path_engages_too(self):
        config = base_2l(2)
        hierarchy = build_hierarchy(config)
        calls = 0
        original = hierarchy.access

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        hierarchy.access = counting
        simulator = Simulator(hierarchy)
        workload = make_workload("swaptions", config.nodes, hierarchy.amap,
                                 seed=3)
        result = simulator.run(workload, 2000, seed=3, batched=True)
        assert calls < result.accesses / 2


class TestFallbacks:
    @pytest.mark.parametrize("name,nodes,wl_seed,total,seed", [
        ("tpcc", 2, 5, 500, 5),
        ("water", 4, 9, 1500, 9),
        ("tpcc", 4, 9, 1500, 9),
        ("mix1", 4, 9, 1500, 9),
        ("water", 2, 5, 800, 0),  # seed 0: the workload's own seed
    ], ids=["tpcc-2n", "water-4n", "tpcc-4n", "mix1-4n",
            "water-default-seed"])
    def test_generic_chunker_matches_generate_batch(self, name, nodes,
                                                    wl_seed, total, seed):
        # the hand-tuned generate_batch must replay the plain generate
        # stream exactly (the generic chunker repacks generate, and is
        # what a workload without generate_batch goes through)
        from repro.sim.batch import _chunks_from_scalar
        workload = make_workload(name, nodes, seed=wl_seed)
        via_batch = [tuple(map(tuple, c)) for c in
                     workload.generate_batch(total, seed, chunk=128)]
        via_scalar = [tuple(map(tuple, c)) for c in
                      _chunks_from_scalar(workload, total, seed, 128)]
        assert via_batch == via_scalar

    @pytest.mark.parametrize("config_name", ["Base-2L", "D2M-NS-R"])
    def test_machine_without_probe_runs_all_slow(self, config_name):
        # a machine with no fastpath_probe runs the same batched loop
        # with every access through its access(), bit-identical to the
        # reference loop
        class NoProbe:
            """Hides fastpath_probe, counts access(), delegates the rest."""

            def __init__(self, inner):
                self._inner = inner
                self.calls = 0

            def __getattr__(self, name):
                if name == "fastpath_probe":
                    raise AttributeError(name)
                return getattr(self._inner, name)

            def access(self, *args):
                self.calls += 1
                return self._inner.access(*args)

        config = _config(config_name)
        snaps, calls = [], []
        for batched in (False, True):
            hierarchy = build_hierarchy(config)
            if hasattr(hierarchy, "protocol"):
                machine = hierarchy.protocol = NoProbe(hierarchy.protocol)
            else:
                machine = hierarchy = NoProbe(hierarchy)
            simulator = Simulator(hierarchy)
            workload = make_workload("tpcc", config.nodes, hierarchy.amap,
                                     seed=3)
            result = simulator.run(workload, 400, seed=3, warmup=100,
                                   batched=batched)
            perf = PerfModel(config.ooo).summarize(result)
            snaps.append(result_snapshot(result, perf.cycles))
            calls.append(machine.calls)
        assert snaps[0] == snaps[1]
        assert calls[0] == calls[1] > snaps[0]["accesses"]

    @pytest.mark.parametrize("config_name", ["Base-2L", "D2M-FS"])
    def test_non_lru_store_means_no_probe(self, config_name):
        # the probes inline the LRU touch, so one store with another
        # policy withdraws the probe; the run then goes all-slow and
        # stays bit-identical to the reference loop
        from repro.mem.replacement import PseudoLRUPolicy

        def pseudo_lru(hierarchy):
            machine = getattr(hierarchy, "protocol", hierarchy)
            assert machine.fastpath_probe() is not None
            store = (machine.tlbs[0] if config_name == "Base-2L"
                     else machine.nodes[1].md1d)
            policies = store.fastpath_view()[1]
            policies[:] = [PseudoLRUPolicy(p.ways) for p in policies]
            assert machine.fastpath_probe() is None
            return hierarchy

        config = _config(config_name)
        snaps = []
        for batched in (False, True):
            hierarchy = pseudo_lru(build_hierarchy(config))
            simulator = Simulator(hierarchy)
            workload = make_workload("mix1", config.nodes, hierarchy.amap,
                                     seed=3)
            result = simulator.run(workload, 600, seed=3, warmup=200,
                                   batched=batched)
            perf = PerfModel(config.ooo).summarize(result)
            snaps.append(result_snapshot(result, perf.cycles))
        assert snaps[0] == snaps[1]
