"""Equivalence tests for the batched fast-path driver (repro.sim.batch).

The contract under test: ``Simulator.run(..., batched=True)`` produces
bit-identical statistics to the scalar loop — stats tree, energy
counts, latency buckets, per-core totals, model cycles, and every
observer's output — for every system kind, with and without warm-up,
under any set of observers.
"""

import pytest

from repro.analysis.events import EventRing
from repro.analysis.sanitizer import attach_sanitizer
from repro.common.observe import DRIVER_HOOKS, Observers
from repro.common.params import all_configs, base_2l, d2m_ns_r
from repro.core.hierarchy import build_hierarchy
from repro.obs.profile import AttributionProfiler
from repro.obs.telemetry import Telemetry
from repro.obs.timeline import TimelineSampler
from repro.sim import batch
from repro.sim.batch import run_batched
from repro.sim.bench import BENCH_CONFIGS, BENCH_WORKLOADS, result_snapshot
from repro.sim.perf import PerfModel
from repro.sim.simulator import Simulator
from repro.workloads.registry import make_workload


def _config(name):
    return {c.name: c for c in all_configs()}[name]


def _simulate(config, workload_name, batched, *, instructions=900,
              warmup=300, observers=(), sanitize=False, check_values=True,
              seed=3, chunk=None):
    hierarchy = build_hierarchy(config)
    if sanitize:
        attach_sanitizer(hierarchy)
    simulator = Simulator(hierarchy, check_values=check_values,
                          observers=observers)
    workload = make_workload(workload_name, config.nodes, hierarchy.amap,
                             seed=seed)
    if chunk is not None:
        result = run_batched(simulator, workload, instructions, seed=seed,
                             warmup=warmup, chunk=chunk)
    else:
        result = simulator.run(workload, instructions, seed=seed,
                               warmup=warmup, batched=batched)
    perf = PerfModel(config.ooo).summarize(result)
    return result_snapshot(result, perf.cycles)


#: observer sets of the equivalence matrix ("sanitize" attaches the
#: sanitizer before the run, the others ride on the Simulator)
OBSERVER_SETS = {
    "none": (),
    "hist": ("hist",),
    "timeline": ("timeline",),
    "sanitize": ("sanitize",),
    "recorder": ("recorder",),
    "all": ("hist", "timeline", "profile", "sanitize", "recorder"),
}


def _observed(config, batched, kinds):
    """A mix1 run under the named observers: its snapshot, the outputs
    of the observers both drivers must agree on, and the profile."""
    made = {"hist": Telemetry(sample_every=32),
            "timeline": TimelineSampler(epoch=64),
            "profile": AttributionProfiler(),
            "recorder": EventRing()}
    snap = _simulate(config, "mix1", batched, sanitize="sanitize" in kinds,
                     observers=[made[k] for k in kinds if k in made])
    outputs = {"hist": made["hist"].hists.summaries(),
               "timeline": made["timeline"].summary(),
               "recorder": made["recorder"].events()}
    return (snap, {k: outputs[k] for k in kinds if k in outputs},
            made["profile"].summary())


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


class TestObserverEquivalence:
    @pytest.mark.parametrize("config_name",
                             ["Base-2L", "D2M-FS", "D2M-NS-R"])
    @pytest.mark.parametrize("observer_set", list(OBSERVER_SETS))
    def test_observers_never_perturb_either_driver(self, observer_set,
                                                   config_name):
        # unsafe event observers (sanitizer, recorder) send the batched
        # run all-slow; either way both drivers must agree with each
        # other, observer outputs included, and with the unobserved run
        config = _config(config_name)
        kinds = OBSERVER_SETS[observer_set]
        scalar, scalar_out, _ = _observed(config, False, kinds)
        batched, batched_out, profile = _observed(config, True, kinds)
        assert scalar == batched == _simulate(config, "mix1", False)
        assert scalar_out == batched_out
        if "recorder" in kinds and config_name != "Base-2L":
            assert batched_out["recorder"]
        if "profile" in kinds:
            _, _, unrecorded = _observed(
                config, True, tuple(k for k in kinds if k != "recorder"))
            assert profile["slow_accesses"] == unrecorded["slow_accesses"]


class TestTracerGating:
    def test_telemetry_is_fast_path_safe(self):
        assert Telemetry().fast_path_safe is True

    def test_fanout_safety_is_conjunction(self):
        safe = Telemetry()
        assert Observers([safe]).fast_path_safe is True
        assert Observers([safe, EventRing()]).fast_path_safe is False
        # an observer without an event half has no say
        assert Observers([safe, TimelineSampler()]).fast_path_safe is True

    def test_no_observer_means_no_driver_call(self):
        observers = Observers()
        assert all(getattr(observers, hook) is None
                   for hook in DRIVER_HOOKS)


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
                                                    wl_seed, total, seed,
                                                    monkeypatch):
        # the hand-tuned generate_batch must give the plain generate +
        # translate stream exactly, whether it generates without keeping
        # the stream (list chunks), generates and records it, or replays
        # it (compact chunks); the generic chunker repacks generate, and
        # is what a workload without generate_batch goes through
        from repro.sim.batch import _chunks_from_scalar
        from repro.workloads import base
        base._replays.clear()

        def drain():
            return list(make_workload(name, nodes, seed=wl_seed)
                        .generate_batch(total, seed, chunk=128))

        with monkeypatch.context() as patch:
            patch.setattr(base, "REPLAY_CAP", 0)  # too long to keep
            live = drain()
        recorded, replayed = drain(), drain()
        assert isinstance(live[0][3], list)
        assert isinstance(recorded[0][0], bytes)
        assert isinstance(replayed[0][0], bytes)
        via_scalar = [tuple(map(tuple, c)) for c in _chunks_from_scalar(
            make_workload(name, nodes, seed=wl_seed), total, seed, 128)]
        for via_batch in (live, recorded, replayed):
            assert [tuple(map(tuple, c)) for c in via_batch] == via_scalar

    @pytest.mark.parametrize("batched", [False, True])
    def test_negative_physical_address_is_a_trace_error(self, batched):
        # a workload without generate_batch whose translate misbehaves:
        # both drivers refuse the access
        from repro.common.errors import TraceError

        class Broken:
            def generate(self, n, seed):
                return make_workload("water", 8, seed=3).generate(n, seed)

            def translate(self, core, vaddr):
                return -1

        simulator = Simulator(build_hierarchy(_config("Base-2L")))
        with pytest.raises(TraceError, match="negative physical address"):
            simulator.run(Broken(), 50, seed=3, batched=batched)

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
