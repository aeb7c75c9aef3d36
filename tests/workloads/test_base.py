"""Unit tests for the workload framework."""

import itertools

from repro.mem.address import AddressMap
from repro.workloads.base import CodeModel
from repro.workloads.registry import get_spec, make_workload


class TestCodeModel:
    def test_hot_fraction_controls_locality(self):
        import random
        hot = CodeModel(footprint=1 << 20, hot_fraction=1.0,
                        hot_functions=4).build(0, random.Random(0))
        rng = random.Random(1)
        pcs = [hot.next_pc(rng) for _ in range(3000)]
        # nearly everything stays within the hot set plus fallthrough
        near = sum(1 for pc in pcs if pc - hot.base < 16 * 1024)
        assert near > 0.95 * len(pcs)

    def test_private_code_images_disjoint(self):
        import random
        model = CodeModel(shared=False)
        a = model.build(0, random.Random(0))
        b = model.build(1, random.Random(0))
        assert a.base != b.base

    def test_warm_tier_used(self):
        import random
        model = CodeModel(footprint=1 << 20, hot_fraction=0.0,
                          warm_fraction=1.0, hot_functions=4,
                          warm_functions=8, avg_block=1)
        stream = model.build(0, random.Random(0))
        rng = random.Random(2)
        pcs = [stream.next_pc(rng) for _ in range(500)]
        slots = {(pc - stream.base) // 256 for pc in pcs}
        assert slots <= set(range(0, 12))  # hot(4) + warm(8) only


class TestSyntheticWorkload:
    def test_deterministic_generation(self):
        amap = AddressMap()
        a = make_workload("water", 4, amap, seed=9)
        b = make_workload("water", 4, amap, seed=9)
        ta = list(itertools.islice(a.generate(500, seed=9), 600))
        tb = list(itertools.islice(b.generate(500, seed=9), 600))
        assert ta == tb

    def test_instruction_count_exact(self):
        workload = make_workload("water", 4, AddressMap(), seed=9)
        instr = sum(1 for acc in workload.generate(777, seed=9)
                    if acc.is_instruction)
        assert instr == 777

    def test_cores_interleaved(self):
        workload = make_workload("water", 8, AddressMap(), seed=9)
        cores = {acc.core for acc in workload.generate(400, seed=9)}
        assert cores == set(range(8))

    def test_mem_ratio_respected(self):
        spec = get_spec("water")
        workload = make_workload("water", 4, AddressMap(), seed=9)
        accesses = list(workload.generate(4000, seed=9))
        data = sum(1 for a in accesses if not a.is_instruction)
        instr = sum(1 for a in accesses if a.is_instruction)
        assert abs(data / instr - spec.mem_ratio) < 0.05

    def test_shared_space_translation(self):
        workload = make_workload("water", 2, AddressMap(), seed=9)
        assert workload.translate(0, 0x5000) == workload.translate(1, 0x5000)

    def test_separate_spaces_for_server(self):
        workload = make_workload("mix1", 2, AddressMap(), seed=9)
        assert workload.translate(0, 0x5000) != workload.translate(1, 0x5000)
