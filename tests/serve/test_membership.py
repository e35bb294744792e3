"""Unit tests for the membership layer: plans, specs, burst wiring."""

import pytest

from repro.exceptions import SimulationError
from repro.faults import AdversarialChannel, AttackPlan, BootstrapBurstForgery
from repro.packets import Packet
from repro.schemes.registry import available_schemes
from repro.serve.membership import (
    BOOTSTRAP_RULES,
    MembershipEvent,
    MembershipPlan,
    parse_churn_spec,
    storm_channel_factory,
)
from repro.topology import (
    shortest_path_tree,
    star_topology,
    topology_channel_factory,
)


def _star_factory(seed, attack_plan_factory=AttackPlan,
                  leaves=("r00", "r01", "r02", "r03")):
    topology = star_topology(list(leaves))
    return topology_channel_factory(seed, topology,
                                    [shortest_path_tree(topology)],
                                    attack_plan_factory)


def _plan(events=(), universe=("r00", "r01", "r02", "r03"), initial=2,
          blocks=8):
    return MembershipPlan(universe=universe, initial=initial, blocks=blocks,
                          events=tuple(events))


class TestMembershipEvent:
    def test_record_form(self):
        event = MembershipEvent(3, "leave", "r01")
        assert event.to_record() == [3, "leave", "r01"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            MembershipEvent(3, "rejoin", "r01")

    def test_block_zero_rejected(self):
        with pytest.raises(SimulationError):
            MembershipEvent(0, "join", "r02")


class TestPlanValidation:
    def test_duplicate_universe_ids_rejected(self):
        with pytest.raises(SimulationError):
            _plan(universe=("r00", "r00", "r01"))

    def test_initial_bounds(self):
        with pytest.raises(SimulationError):
            _plan(initial=0)
        with pytest.raises(SimulationError):
            _plan(initial=5)

    def test_initial_member_cannot_join(self):
        with pytest.raises(SimulationError) as err:
            _plan([MembershipEvent(2, "join", "r00")])
        assert "spare pool" in str(err.value)

    def test_spare_cannot_leave_before_joining(self):
        with pytest.raises(SimulationError):
            _plan([MembershipEvent(2, "leave", "r02")])

    def test_nobody_joins_twice(self):
        with pytest.raises(SimulationError):
            _plan([MembershipEvent(2, "join", "r02"),
                   MembershipEvent(3, "leave", "r02"),
                   MembershipEvent(5, "join", "r02")])

    def test_unknown_receiver_rejected(self):
        with pytest.raises(SimulationError):
            _plan([MembershipEvent(2, "join", "r99")])

    def test_event_beyond_session_rejected(self):
        with pytest.raises(SimulationError):
            _plan([MembershipEvent(8, "join", "r02")])

    def test_two_events_same_block_same_receiver_rejected(self):
        with pytest.raises(SimulationError):
            _plan([MembershipEvent(2, "join", "r02"),
                   MembershipEvent(2, "leave", "r02")])

    def test_survivor_floor(self):
        with pytest.raises(SimulationError) as err:
            _plan([MembershipEvent(2, "leave", "r00"),
                   MembershipEvent(2, "crash", "r01")])
        assert "survive" in str(err.value)

    def test_joiners_replace_a_blocks_leavers(self):
        # The floor holds per block: the last member leaving at the same
        # boundary a spare joins is a hand-over, not an empty session.
        plan = _plan([MembershipEvent(2, "leave", "r00"),
                      MembershipEvent(3, "leave", "r01"),
                      MembershipEvent(3, "join", "r02")])
        assert plan.final_active() == ["r02"]

    def test_block_that_really_empties_the_session_rejected(self):
        with pytest.raises(SimulationError, match="survive"):
            _plan([MembershipEvent(2, "leave", "r00"),
                   MembershipEvent(3, "leave", "r01"),
                   MembershipEvent(4, "join", "r02")])

    def test_departing_all_but_one_is_fine(self):
        plan = _plan([MembershipEvent(2, "leave", "r00")])
        assert plan.final_active() == ["r01"]


class TestPlanAccessors:
    EVENTS = (MembershipEvent(2, "join", "r02"),
              MembershipEvent(2, "leave", "r01"),
              MembershipEvent(4, "crash", "r00"),
              MembershipEvent(5, "join", "r03"))

    def test_events_sorted_leaves_before_joins(self):
        plan = _plan(self.EVENTS)
        boundary = plan.boundary_events(2)
        assert [e.kind for e in boundary] == ["leave", "join"]

    def test_crashes_separated_from_boundary(self):
        plan = _plan(self.EVENTS)
        assert plan.boundary_events(4) == []
        assert [e.receiver_id for e in plan.crash_events(4)] == ["r00"]

    def test_initial_ids_and_index(self):
        plan = _plan(self.EVENTS)
        assert plan.initial_ids == ["r00", "r01"]
        assert plan.index_of("r03") == 3
        with pytest.raises(SimulationError):
            plan.index_of("r99")

    def test_join_blocks_counts_final_active(self):
        plan = _plan(self.EVENTS)
        assert plan.join_blocks == {"r02": 2, "r03": 5}
        assert plan.counts() == {"leave": 1, "join": 2, "crash": 1}
        assert plan.final_active() == ["r02", "r03"]

    def test_describe_is_manifest_ready(self):
        plan = _plan(self.EVENTS)
        record = plan.describe()
        assert record["universe"] == 4
        assert record["initial"] == 2
        assert record["counts"] == plan.counts()
        assert record["final_active"] == ["r02", "r03"]
        assert [2, "leave", "r01"] in record["events"]


class TestParseChurnSpec:
    def test_storm_default_rates(self):
        assert parse_churn_spec("storm") == ("storm", ())

    def test_storm_explicit_rates(self):
        assert parse_churn_spec("storm:1,0.5,0") == ("storm", (1.0, 0.5, 0.0))

    def test_flood_and_flap(self):
        assert parse_churn_spec("flood:6") == ("flood", (6.0,))
        assert parse_churn_spec("flap:3") == ("flap", (3.0,))

    @pytest.mark.parametrize("bad", [
        "storm:1,2", "storm:a,b,c", "storm:-1,0,0", "flood:0", "flood:x",
        "flap:0", "flap:y", "drizzle", "flood", "flap",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(SimulationError):
            parse_churn_spec(bad)


class TestFromSpec:
    def test_universe_doubles_the_initial_roster(self):
        plan = MembershipPlan.from_spec("storm", 4, 16, seed=7)
        assert len(plan.universe) == 8
        assert plan.initial == 4
        assert plan.initial_ids == ["r00", "r01", "r02", "r03"]
        # Sorted order == universe order: channel seeding relies on it.
        assert list(plan.universe) == sorted(plan.universe)

    def test_same_seed_same_plan(self):
        one = MembershipPlan.from_spec("storm", 4, 16, seed=7)
        two = MembershipPlan.from_spec("storm", 4, 16, seed=7)
        assert one == two
        assert one != MembershipPlan.from_spec("storm", 4, 16, seed=8)

    def test_every_storm_seed_builds(self):
        # churn_storm counts a block's joiners toward its survivor
        # floor; the plan must accept every trajectory it draws.
        for seed in range(2000):
            MembershipPlan.from_spec("storm", 3, 6, seed)

    def test_storm_actually_churns(self):
        plan = MembershipPlan.from_spec("storm", 4, 24, seed=7)
        assert sum(plan.counts().values()) > 0

    def test_flood_joins_every_spare_at_one_block(self):
        plan = MembershipPlan.from_spec("flood:5", 4, 12, seed=7)
        assert plan.counts() == {"join": 4, "leave": 0, "crash": 0}
        assert all(e.block == 5 for e in plan.events)
        assert plan.final_active() == sorted(plan.universe)

    def test_flood_block_clamped_to_session(self):
        plan = MembershipPlan.from_spec("flood:99", 2, 6, seed=7)
        assert all(e.block == 5 for e in plan.events)

    def test_flap_members_stay_one_block(self):
        plan = MembershipPlan.from_spec("flap:2", 4, 12, seed=7)
        assert plan.counts() == {"join": 2, "leave": 2, "crash": 0}
        assert plan.final_active() == plan.initial_ids


class TestBootstrapRules:
    def test_every_registered_scheme_has_a_rule(self):
        assert set(BOOTSTRAP_RULES) == set(available_schemes())


class TestStormChannelFactory:
    SEED = 2003

    def _plan(self):
        return _plan_with_join()

    def test_non_join_cells_pass_through_unchanged(self):
        base = _star_factory(self.SEED)
        wrapped = storm_channel_factory(base, self._plan(), self.SEED)
        channel = wrapped(0, 3, 0.1)
        assert channel.plan.faults == base(0, 3, 0.1).plan.faults == ()
        packets = [Packet(seq=i + 1, block_id=3, payload=b"x%d" % i,
                          send_time=0.001 * i) for i in range(12)]
        got = channel.transmit_wire(packets)
        want = _star_factory(self.SEED)(0, 3, 0.1).transmit_wire(packets)
        assert got == want
        assert 0 < len(got) < len(packets)

    def test_join_cell_gets_the_burst(self):
        base = _star_factory(self.SEED)
        wrapped = storm_channel_factory(base, self._plan(), self.SEED)
        channel = wrapped(2, 3, 0.1)  # r02's universe index is 2
        assert isinstance(channel, AdversarialChannel)
        assert any(isinstance(f, BootstrapBurstForgery)
                   for f in channel.plan.faults)

    def test_recompose_preserves_base_faults(self):
        mix = lambda: AttackPlan(  # noqa: E731
            (BootstrapBurstForgery(burst_rate=0.3, window=2),))
        base = _star_factory(self.SEED, attack_plan_factory=mix)
        wrapped = storm_channel_factory(base, self._plan(), self.SEED)
        channel = wrapped(2, 3, 0.1)
        assert isinstance(channel, AdversarialChannel)
        # Base mix's fault first, the bootstrap burst appended after.
        assert len(channel.plan.faults) == 2

    def test_wrapped_factory_is_deterministic(self):
        base = _star_factory(self.SEED)
        wrapped = storm_channel_factory(base, self._plan(), self.SEED)
        packets = []
        for factory_run in range(2):
            channel = wrapped(2, 3, 0.1)
            stamped = [Packet(seq=i + 1, block_id=3, payload=b"x%d" % i,
                              send_time=0.0) for i in range(6)]
            packets.append([(d.kind, d.data)
                            for d in channel.transmit_wire(stamped)])
        assert packets[0] == packets[1]


def _plan_with_join():
    return MembershipPlan(
        universe=("r00", "r01", "r02", "r03"), initial=2, blocks=8,
        events=(MembershipEvent(3, "join", "r02"),))
