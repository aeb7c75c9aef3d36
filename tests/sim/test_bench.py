"""The pinned matrix's comparison form of a run."""

import json

from repro.common.params import all_configs
from repro.sim.bench import result_snapshot
from repro.sim.runner import run_workload


class TestEquivalenceGate:
    def test_snapshot_is_json_serializable(self):
        # the form `repro verify --coverage` compares between drivers
        config = {c.name: c for c in all_configs()}["Base-2L"]
        outcome = run_workload(config, "swaptions", instructions=400,
                               warmup=200, batched=False)
        snap = result_snapshot(outcome.result, outcome.perf.cycles)
        round_tripped = json.loads(json.dumps(snap))
        assert round_tripped == snap
        assert snap["instructions"] == 400
        assert snap["cycles"] > 0
