"""Unit tests for the adversarial fault models."""

import pytest

from repro.crypto.signatures import HmacStubSigner
from repro.exceptions import SimulationError
from repro.faults import (
    AttackPlan,
    BitFlipCorruption,
    ForgedInjection,
    ReorderJitter,
    ReplayDuplication,
    TruncationCorruption,
)
from repro.faults.models import FRESH_SEQ_OFFSET, FaultModel
from repro.packets import WIRE_HEADER_SIZE, Packet, packet_from_wire
from repro.schemes.rohatgi import RohatgiScheme
from repro.simulation.sender import make_payloads


@pytest.fixture
def wire():
    return Packet(seq=3, block_id=0, payload=b"x" * 40,
                  extra=b"y" * 24).to_wire()


@pytest.fixture
def genuine_packet():
    signer = HmacStubSigner(key=b"fault-test")
    return RohatgiScheme().make_block(make_payloads(4), signer)[1]


class TestValidation:
    def test_rates_must_be_probabilities(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(SimulationError):
                BitFlipCorruption(bad)
            with pytest.raises(SimulationError):
                TruncationCorruption(bad)
            with pytest.raises(SimulationError):
                ForgedInjection(bad)
            with pytest.raises(SimulationError):
                ReplayDuplication(bad)

    def test_bitflip_needs_positive_flips(self):
        with pytest.raises(SimulationError):
            BitFlipCorruption(0.5, max_flips=0)

    def test_replay_delay_window(self):
        with pytest.raises(SimulationError):
            ReplayDuplication(0.5, min_delay=0.0)
        with pytest.raises(SimulationError):
            ReplayDuplication(0.5, min_delay=0.2, max_delay=0.1)
        with pytest.raises(SimulationError):
            ReplayDuplication(0.5, copies=0)

    def test_jitter_width_nonnegative(self):
        with pytest.raises(SimulationError):
            ReorderJitter(-0.1)

    def test_forged_epsilon_positive(self):
        with pytest.raises(SimulationError):
            ForgedInjection(0.5, epsilon=0.0)


class TestBitFlip:
    def test_header_never_touched(self, wire):
        model = BitFlipCorruption(1.0, max_flips=8, seed=5)
        for _ in range(50):
            mutated = model.corrupt(wire)
            assert mutated is not None
            assert len(mutated) == len(wire)
            assert mutated[:WIRE_HEADER_SIZE] == wire[:WIRE_HEADER_SIZE]
            assert mutated != wire

    def test_header_only_buffer_passes_through(self):
        model = BitFlipCorruption(1.0, seed=5)
        assert model.corrupt(b"\x00" * WIRE_HEADER_SIZE) is None

    def test_rate_zero_never_corrupts(self, wire):
        model = BitFlipCorruption(0.0, seed=5)
        assert all(model.corrupt(wire) is None for _ in range(20))

    def test_corruption_rate_exposed(self):
        assert BitFlipCorruption(0.3).corruption_rate == 0.3


class TestTruncation:
    def test_strict_prefix(self, wire):
        model = TruncationCorruption(1.0, seed=9)
        for _ in range(50):
            mutated = model.corrupt(wire)
            assert mutated is not None
            assert len(mutated) < len(wire)
            assert wire.startswith(mutated)

    def test_empty_buffer_passes_through(self):
        assert TruncationCorruption(1.0, seed=9).corrupt(b"") is None


class TestForgedInjection:
    def test_colliding_forgery_decodes_with_genuine_seq(self, genuine_packet):
        model = ForgedInjection(1.0, collide=True, seed=13)
        (offset, forged_wire), = model.forge(genuine_packet)
        assert offset > 0
        forged = packet_from_wire(forged_wire)
        assert forged.seq == genuine_packet.seq
        assert forged.payload != genuine_packet.payload
        assert forged.carried == genuine_packet.carried

    def test_fresh_seq_forgery(self, genuine_packet):
        model = ForgedInjection(1.0, collide=False, seed=13)
        (_, forged_wire), = model.forge(genuine_packet)
        assert packet_from_wire(forged_wire).seq == (
            genuine_packet.seq + FRESH_SEQ_OFFSET)


class TestReplay:
    def test_offsets_within_window_and_copies(self, wire):
        model = ReplayDuplication(1.0, min_delay=0.01, max_delay=0.02,
                                  copies=3, seed=17)
        offsets = model.replay(wire)
        assert len(offsets) == 3
        assert all(0.01 <= o <= 0.02 for o in offsets)


class TestJitter:
    def test_within_width(self):
        model = ReorderJitter(0.5, seed=21)
        assert all(0.0 <= model.jitter() < 0.5 for _ in range(100))

    def test_zero_width(self):
        assert ReorderJitter(0.0, seed=21).jitter() == 0.0


class TestReseed:
    def test_same_seed_same_stream(self, wire):
        a, b = BitFlipCorruption(0.5), BitFlipCorruption(0.5)
        a.reseed(99)
        b.reseed(99)
        assert [a.corrupt(wire) for _ in range(30)] == \
               [b.corrupt(wire) for _ in range(30)]

    def test_different_seeds_differ(self, wire):
        a, b = BitFlipCorruption(0.5), BitFlipCorruption(0.5)
        a.reseed(99)
        b.reseed(100)
        assert [a.corrupt(wire) for _ in range(30)] != \
               [b.corrupt(wire) for _ in range(30)]

    def test_reset_restores_stream(self, wire):
        model = TruncationCorruption(0.7, seed=3)
        first = [model.corrupt(wire) for _ in range(20)]
        model.reset()
        assert [model.corrupt(wire) for _ in range(20)] == first

    def test_hook_only_subclass_reseeds_deterministically(self):
        # A subclass that sets no seed of its own must still be pinned
        # by reseed: the serve layer reuses one plan per receiver and
        # relies on the per-cell reseed alone.
        class Nudge(FaultModel):
            def jitter(self):
                return self._rng.random()

        model = Nudge()
        model.reseed(5)
        first = model.jitter()
        model.reseed(5)
        assert model.jitter() == first
        plan = AttackPlan((Nudge(),))
        plan.reseed(5)
        again = plan.faults[0].jitter()
        plan.reseed(5)
        assert plan.faults[0].jitter() == again


class TestAttackPlan:
    def test_members_must_be_fault_models(self):
        with pytest.raises(SimulationError):
            AttackPlan(("not a fault",))

    def test_corruption_rate_composes(self):
        plan = AttackPlan((BitFlipCorruption(0.2), TruncationCorruption(0.1),
                           ReplayDuplication(0.5)))
        assert plan.corruption_rate == pytest.approx(1 - 0.8 * 0.9)

    def test_empty_plan_rate_zero(self):
        assert AttackPlan().corruption_rate == 0.0

    def test_reseed_gives_members_distinct_streams(self, wire):
        plan = AttackPlan((BitFlipCorruption(0.5), BitFlipCorruption(0.5)))
        plan.reseed(42)
        first, second = plan.faults
        assert [first.corrupt(wire) for _ in range(30)] != \
               [second.corrupt(wire) for _ in range(30)]

    def test_plan_reseed_deterministic(self, wire):
        plans = [AttackPlan((BitFlipCorruption(0.5), TruncationCorruption(0.3)))
                 for _ in range(2)]
        streams = []
        for plan in plans:
            plan.reseed(7)
            streams.append([fault.corrupt(wire)
                            for fault in plan.faults for _ in range(10)])
        assert streams[0] == streams[1]
