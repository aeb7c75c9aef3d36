"""The translated-stream replay cache of ``SyntheticWorkload.generate_batch``.

A replayed stream must be indistinguishable from a generated one: the
same chunks and the same simulated results.  Every stream starts from
empty address spaces, so what a workload object translated before or
during a drain changes neither.
"""

import threading
from array import array
from dataclasses import replace

import pytest

from repro.common.params import all_configs
from repro.core.hierarchy import build_hierarchy
from repro.mem.address import AddressMap
from repro.sim.bench import result_snapshot
from repro.sim.perf import PerfModel
from repro.sim.simulator import Simulator
from repro.workloads import base
from repro.workloads.base import SyntheticWorkload
from repro.workloads.registry import get_spec, make_workload


@pytest.fixture(autouse=True)
def empty_cache():
    base._replays.clear()
    yield
    base._replays.clear()


@pytest.fixture
def draws(monkeypatch):
    """Counts the streams actually generated (not replayed)."""
    calls = []
    original = SyntheticWorkload._draws

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(SyntheticWorkload, "_draws", counting)
    return calls


def _config(name):
    return {c.name: c for c in all_configs()}[name]


def _chunks(workload, n, seed=3, chunk=256):
    return [tuple(map(tuple, c))
            for c in workload.generate_batch(n, seed, chunk)]


def _run(config, workload, batched, seed=3):
    simulator = Simulator(build_hierarchy(config), check_values=True)
    result = simulator.run(workload, 900, seed=seed, warmup=300,
                           batched=batched)
    perf = PerfModel(config.ooo).summarize(result)
    return result_snapshot(result, perf.cycles)


class TestReplay:
    @pytest.mark.parametrize("name", ["water", "mix1"])
    @pytest.mark.parametrize("config_name", ["Base-2L", "D2M-NS-R"])
    def test_second_run_replays_like_a_fresh_scalar_run(self, name,
                                                        config_name, draws):
        # mix1 runs one address space per core, water shares one
        config = _config(config_name)
        workloads = [make_workload(name, config.nodes, seed=3)
                     for _ in range(3)]
        first = _run(config, workloads[0], batched=True)
        second = _run(config, workloads[1], batched=True)
        assert len(draws) == 1  # the second run replayed
        reference = _run(config, workloads[2], batched=False)
        assert first == second == reference
        # batched generation leaves the workload's own spaces empty
        assert (workloads[0].translate(0, 0x7777_0000)
                == make_workload(name, config.nodes).translate(0, 0x7777_0000))

    def test_replayed_chunks_are_compact_and_equal(self):
        # a recording drain already yields the compact shape it keeps
        fresh, again = (make_workload("water", 4, seed=9) for _ in range(2))
        generated = list(fresh.generate_batch(1500, 9, 128))
        replayed = list(again.generate_batch(1500, 9, 128))
        for cores, kinds, vaddrs, paddrs in (generated[0], replayed[0]):
            assert isinstance(cores, bytes) and isinstance(kinds, bytes)
            assert isinstance(vaddrs, array) and isinstance(paddrs, array)
        assert ([tuple(map(tuple, c)) for c in generated]
                == [tuple(map(tuple, c)) for c in replayed])
        # one stored shape: a replay yields the very tuples recorded
        assert all(r is g for r, g in zip(replayed, generated))

    def test_translating_first_keeps_the_keyed_stream(self, draws):
        # a workload that mapped a page before streaming still gets its
        # key's stream, replayed or generated, equal to a fresh one's
        expected = _chunks(make_workload("water", 4, seed=3), 900)
        for replayed in (True, False):
            if not replayed:
                base._replays.clear()
            touched = make_workload("water", 4, seed=3)
            touched.translate(0, 0x7777_0000)
            assert _chunks(touched, 900) == expected
        assert len(draws) == 2
        # the reference loop's translate follows the same rule
        reference = make_workload("water", 4, seed=3)
        reference.translate(0, 0x7777_0000)
        assert ([reference.translate(acc.core, acc.vaddr)
                 for acc in reference.generate(900, 3)]
                == [p for chunk in expected for p in chunk[3]])

    @pytest.mark.parametrize("config_name", ["Base-2L", "D2M-FS"])
    def test_simulating_one_workload_twice_matches_the_scalar_loop(
            self, config_name, draws):
        config = _config(config_name)
        batched, scalar = (make_workload("tpcc", config.nodes, seed=3)
                           for _ in range(2))
        first = _run(config, batched, True)
        assert first == _run(config, scalar, False)
        assert _run(config, batched, True) == _run(config, scalar, False) \
            == first
        # the second batched run replayed; each scalar run drew its
        # stream through generate
        assert len(draws) == 3

    @pytest.mark.parametrize("config_name", ["Base-2L", "D2M-NS-R"])
    def test_one_workload_over_two_seeds_matches_the_scalar_loop(
            self, config_name):
        config = _config(config_name)
        batched, scalar = (make_workload("mix1", config.nodes, seed=3)
                           for _ in range(2))
        for seed in (3, 4):
            got = _run(config, batched, True, seed)
            assert got == _run(config, scalar, False, seed)
        # and seed 4 gives what a fresh workload gives
        fresh = make_workload("mix1", config.nodes, seed=3)
        assert got == _run(config, fresh, False, 4)


class TestKey:
    @staticmethod
    def _workload(spec, nodes=4, page_size=4096):
        return SyntheticWorkload(spec, nodes, AddressMap(page_size=page_size),
                                 seed=1)

    @pytest.mark.parametrize("variant", [
        "seed", "nodes", "n", "chunk", "page_size", "address_space"])
    def test_no_other_stream_is_hit(self, variant, draws):
        spec = get_spec("water")
        args = {"spec": spec, "nodes": 4, "page_size": 4096}
        stream = {"n": 700, "seed": 5, "chunk": 256}
        other_args, other_stream = dict(args), dict(stream)
        if variant == "address_space":
            other_args["spec"] = replace(spec, shared_space=False)
        elif variant in other_args:
            other_args[variant] = {"nodes": 2, "page_size": 8192}[variant]
        else:
            other_stream[variant] = {"seed": 6, "n": 701,
                                     "chunk": 128}[variant]
        _chunks(self._workload(**args), **stream)
        live = _chunks(self._workload(**other_args), **other_stream)
        base._replays.clear()
        _chunks(self._workload(**args), **stream)
        after = _chunks(self._workload(**other_args), **other_stream)
        assert after == live
        assert len(draws) == 4
        assert len(base._replays) == 2

    def test_cap_holds_after_many_streams(self, monkeypatch):
        monkeypatch.setattr(base, "REPLAY_CAP", 5000)
        workload_seeds = range(1, 21)
        for seed in workload_seeds:
            _chunks(make_workload("water", 4, seed=seed), 500, seed=seed)
            assert sum(map(len, base._replays.values())) <= 5000
        assert 1 < len(base._replays) < len(workload_seeds)
        # least recently used went first: the newest stream is kept
        assert list(base._replays)[-1][2] == 20

    @pytest.mark.parametrize("cap", [100, 600])
    def test_stream_beyond_the_cap_is_not_kept(self, cap, monkeypatch):
        # 500 instructions of water are 700 accesses: more instructions
        # than the cap, or only more accesses
        monkeypatch.setattr(base, "REPLAY_CAP", cap)
        _chunks(make_workload("water", 4, seed=3), 500)
        assert not base._replays

    def test_partial_drain_stores_nothing(self):
        stream = make_workload("water", 4, seed=3).generate_batch(900, 3, 64)
        next(stream)
        next(stream)
        stream.close()
        assert not base._replays

    def test_translate_between_chunks_changes_nothing(self):
        # a translate between chunks changes neither the stream nor
        # what is stored
        expected = _chunks(make_workload("water", 4, seed=3), 900, chunk=64)
        base._replays.clear()
        workload = make_workload("water", 4, seed=3)
        got = []
        for index, chunk in enumerate(workload.generate_batch(900, 3, 64)):
            got.append(tuple(map(tuple, chunk)))
            if index == 1:
                workload.translate(0, 0x7777_0000)
        assert got == expected
        [stored] = base._replays.values()
        assert [tuple(map(tuple, c)) for c in stored.chunks] == expected


class TestThreads:
    def test_two_threads_generating_one_row_agree(self):
        expected = _chunks(make_workload("tpcc", 4, seed=3), 2000)
        for _round in ("miss", "hit"):
            if _round == "miss":
                base._replays.clear()
            barrier = threading.Barrier(2)
            results = [None, None]

            def drain(slot):
                workload = make_workload("tpcc", 4, seed=3)
                barrier.wait()
                results[slot] = _chunks(workload, 2000)

            threads = [threading.Thread(target=drain, args=(i,))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert results[0] == results[1] == expected
            assert len(base._replays) == 1
