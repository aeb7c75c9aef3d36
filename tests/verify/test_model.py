"""Exhaustive model checker: clean sweeps, reachability, seeded violations."""

import time

from repro.verify.model import (
    LLC,
    MEM,
    StuckState,
    _d2m_check,
    _d2m_successors,
    _explore,
    _mesi_check,
    check_all,
    check_d2m,
    check_mesi,
)
from repro.verify.spec import D2M_SPEC, MESI_SPEC


class TestAcceptanceSweep:
    def test_both_specs_clean_and_fast(self):
        start = time.monotonic()
        results = check_all()
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"model check took {elapsed:.1f}s"
        for result in results:
            assert result.ok, result.violations
            assert result.states > 1
            assert result.steps > result.states

    def test_every_modeled_transition_reachable(self):
        fired = {}
        for result in check_all():
            fired.setdefault(result.protocol, set()).update(result.fired)
        for spec in (MESI_SPEC, D2M_SPEC):
            modeled = {t.tid for t in spec.transitions if t.model}
            missing = modeled - fired[spec.name]
            assert not missing, f"{spec.name}: never fired {sorted(missing)}"

    def test_three_cores_still_clean(self):
        assert check_mesi(3, 1).ok
        assert check_d2m(3, 1).ok

    def test_unreachable_helper_lists_unfired(self):
        result = check_mesi(2, 1)
        result.fired.discard("mesi.recall")
        assert "mesi.recall" in result.unreachable(MESI_SPEC)


class TestSeededMesiViolations:
    """Hand-corrupted states must trip the matching invariant."""

    def test_two_owners_is_swmr(self):
        state = ((("M", "M"), True, frozenset({0})),)
        kind, detail = _mesi_check(state)
        assert kind == "swmr"
        assert "owner" in detail

    def test_owner_with_sharer_is_swmr(self):
        state = ((("M", "S"), True, frozenset({0})),)
        assert _mesi_check(state)[0] == "swmr"

    def test_node_copy_without_llc_is_inclusion(self):
        state = ((("S", "I"), False, frozenset({0})),)
        assert _mesi_check(state)[0] == "inclusion"

    def test_lost_newest_data_is_data_value(self):
        state = ((("I", "I"), False, frozenset()),)
        assert _mesi_check(state)[0] == "data-value"

    def test_fresh_set_outside_holders_is_data_value(self):
        state = ((("I", "I"), False, frozenset({1})),)
        assert _mesi_check(state)[0] == "data-value"

    def test_clean_initial_state_passes(self):
        state = ((("I", "I"), False, frozenset({MEM})),)
        assert _mesi_check(state) is None


class TestSeededD2mViolations:
    @staticmethod
    def _state(region, line):
        return (region, (line,))

    def test_private_region_with_two_pb_bits(self):
        bad = self._state((True, frozenset({0, 1}), True),
                          (None, frozenset(), frozenset({MEM})))
        kind, detail = _d2m_check(bad)
        assert kind == "md-tracking"
        assert "private" in detail

    def test_pb_without_md3_entry(self):
        bad = self._state((False, frozenset({0}), False),
                          (None, frozenset(), frozenset({MEM})))
        assert _d2m_check(bad)[0] == "md-tracking"

    def test_cached_line_without_tracking(self):
        bad = self._state((False, frozenset(), False),
                          (LLC, frozenset(), frozenset({LLC})))
        assert _d2m_check(bad)[0] == "md-tracking"

    def test_copies_outside_pb(self):
        bad = self._state((True, frozenset({0}), True),
                          (0, frozenset({0, 1}), frozenset({0, 1})))
        assert _d2m_check(bad)[0] == "md-tracking"

    def test_master_without_copy_is_swmr(self):
        bad = self._state((True, frozenset({0}), True),
                          (0, frozenset(), frozenset({MEM})))
        assert _d2m_check(bad)[0] == "swmr"

    def test_lost_newest_data(self):
        bad = self._state((True, frozenset({0}), True),
                          (0, frozenset({0}), frozenset()))
        assert _d2m_check(bad)[0] == "data-value"

    def test_clean_initial_state_passes(self):
        good = self._state((False, frozenset(), False),
                           (None, frozenset(), frozenset({MEM})))
        assert _d2m_check(good) is None


class TestStuckDetection:
    def test_stale_local_copy_reported_as_stuck(self):
        # A node holds a copy it cannot legally serve (not in the
        # freshness set): the load hit rule raises, and the explorer
        # reports it as a stuck state instead of crashing.
        region = (True, frozenset({0}), True)
        line = (0, frozenset({0}), frozenset({MEM}))
        initial = (region, (line,))
        result = _explore("d2m", 2, 1, initial,
                          _d2m_successors(2, 1), lambda _s: None)
        assert any(v.invariant == "stuck" for v in result.violations)

    def test_stuckstate_message_propagates(self):
        def successors(_state):
            raise StuckState("no handler for (X, store)")
            yield  # pragma: no cover

        result = _explore("mesi", 2, 1, ("init",), successors,
                          lambda _s: None)
        assert result.violations[0].invariant == "stuck"
        assert "no handler" in result.violations[0].detail

    def test_violation_path_reconstructed(self):
        # Corrupt the checker instead of the model: flag any state where
        # node 0 went Modified, and require the event trail to show how
        # BFS got there.
        def check(state):
            if state[0][0][0] == "M":
                return ("swmr", "seeded: node 0 reached M")
            return None

        from repro.verify.model import _mesi_successors

        line = (("I", "I"), False, frozenset({MEM}))
        result = _explore("mesi", 2, 1, (line,),
                          _mesi_successors(2, 1), check)
        assert result.violations, "seeded check never fired"
        bad = result.violations[0]
        assert bad.invariant == "swmr"
        assert bad.path, "violation must carry its event path"
        assert any("store(n0)" in step or "load(n0)" in step
                   for step in bad.path)

    def test_state_explosion_guard(self):
        result = _explore("mesi", 2, 1,
                          (("I", "I"), False, frozenset({MEM})),
                          lambda s: iter([((s, object()), (), "spin")]),
                          lambda _s: None, max_states=10)
        assert any(v.invariant == "explosion" for v in result.violations)
