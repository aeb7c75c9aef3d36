"""Tests for trace-file recording and replay."""

import pytest

from repro.common.errors import TraceError
from repro.common.params import base_2l, d2m_fs
from repro.common.types import AccessKind
from repro.core.hierarchy import build_hierarchy
from repro.mem.address import AddressMap
from repro.sim.simulator import Simulator
from repro.workloads.registry import make_workload
from repro.workloads.tracefile import (
    TraceFileWorkload,
    load_trace,
    parse_trace_line,
    record_trace,
)


class TestParsing:
    def test_basic_line(self):
        acc = parse_trace_line("2 L 0x1000")
        assert acc.core == 2
        assert acc.kind is AccessKind.LOAD
        assert acc.vaddr == 0x1000

    def test_decimal_and_case(self):
        assert parse_trace_line("0 s 4096").kind is AccessKind.STORE
        assert parse_trace_line("0 i 4096").kind is AccessKind.IFETCH

    def test_garbage_rejected(self):
        for bad in ("1 L", "x L 0", "0 Q 0", "0 L zz"):
            with pytest.raises(TraceError):
                parse_trace_line(bad)


class TestRecordReplay:
    def test_roundtrip_identical_stream(self, tmp_path):
        amap = AddressMap()
        source = make_workload("water", 2, amap, seed=3)
        path = tmp_path / "water.trace"
        written = record_trace(source, 300, path, seed=3)
        assert written > 300  # instructions + data ops

        replay = TraceFileWorkload(path, nodes=2, amap=amap)
        fresh = make_workload("water", 2, amap, seed=3)
        assert (list(replay.generate(300))
                == list(fresh.generate(300, seed=3)))

    @pytest.mark.parametrize("wl_name", ["water", "mix1"])
    def test_roundtrip_simulation_bit_identical(self, tmp_path, wl_name):
        # record_trace -> TraceFileWorkload must reproduce the
        # originating synthetic run bit-for-bit: stats tree, buckets,
        # per-core totals, cycles, and telemetry histogram digests.
        # 'water' uses a shared address space (threads of one process),
        # 'mix1' per-process spaces — both conventions must survive the
        # round trip, through the reference loop and through the batched
        # driver (which chunks the trace with its generic chunker).
        from repro.obs.telemetry import Telemetry
        from repro.sim.bench import result_snapshot
        from repro.sim.perf import PerfModel

        def simulate(workload, config, batched):
            hierarchy = build_hierarchy(config)
            tele = Telemetry(sample_every=32)
            simulator = Simulator(hierarchy, observers=[tele])
            result = simulator.run(workload, 400, seed=3, warmup=120,
                                   batched=batched)
            perf = PerfModel(config.ooo).summarize(result)
            snap = result_snapshot(result, perf.cycles)
            snap["hists"] = tele.hists.summaries()
            return snap

        amap = AddressMap()
        source = make_workload(wl_name, 2, amap, seed=3)
        shared = source.spec.shared_space
        path = tmp_path / f"{wl_name}.trace"
        # the run consumes warmup + instructions = 520 windows
        record_trace(source, 520, path, seed=3)
        for factory in (base_2l, d2m_fs):
            for batched in (False, True):
                original = simulate(make_workload(wl_name, 2, amap, seed=3),
                                    factory(2), batched)
                replayed = simulate(
                    TraceFileWorkload(path, nodes=2, amap=amap,
                                      shared_space=shared),
                    factory(2), batched)
                assert original == replayed, (wl_name, factory.__name__,
                                              batched)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# header\n\n0 I 0x10  # inline\n0 L 0x20\n")
        assert len(load_trace(path)) == 2

    def test_core_bound_checked(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("5 L 0x10\n")
        workload = TraceFileWorkload(path, nodes=2)
        with pytest.raises(TraceError):
            list(workload.generate(10))

    def test_instruction_budget_respected(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("0 I 0x10\n0 L 0x20\n0 I 0x30\n0 I 0x40\n")
        workload = TraceFileWorkload(path, nodes=1)
        accesses = list(workload.generate(2))
        assert sum(1 for a in accesses if a.is_instruction) == 2


class TestSimulationOnTraces:
    @pytest.mark.parametrize("factory", [base_2l, d2m_fs])
    def test_trace_drives_any_hierarchy(self, tmp_path, factory):
        amap = AddressMap()
        source = make_workload("water", 2, amap, seed=4)
        path = tmp_path / "water.trace"
        record_trace(source, 1_000, path, seed=4)

        hierarchy = build_hierarchy(factory(2))
        replay = TraceFileWorkload(path, nodes=2, amap=hierarchy.amap)
        result = Simulator(hierarchy, check_values=True).run(replay, 1_000)
        assert result.instructions == 1_000

    def test_replay_matches_synthetic_results(self, tmp_path):
        amap = AddressMap()
        source = make_workload("water", 2, amap, seed=4)
        path = tmp_path / "water.trace"
        record_trace(source, 800, path, seed=4)

        h1 = build_hierarchy(base_2l(2))
        r1 = Simulator(h1).run(make_workload("water", 2, h1.amap, seed=4),
                               800, seed=4)
        h2 = build_hierarchy(base_2l(2))
        r2 = Simulator(h2).run(TraceFileWorkload(path, 2, amap=h2.amap), 800)
        assert r1.miss_ratio(False) == r2.miss_ratio(False)
        assert h1.network.total_messages == h2.network.total_messages
