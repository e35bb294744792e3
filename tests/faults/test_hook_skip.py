"""Differential: calling only overridden fault hooks changes nothing.

:class:`~repro.faults.AttackPlan` records which members override
``jitter``, ``corrupt``, ``forge`` and ``replay``, and
:meth:`AdversarialChannel.transmit_wire` calls only those.
:func:`call_every_hook` keeps the loop it replaced — every hook of
every member for every delivery — as the oracle.  Over random plans
drawn from all seven concrete fault models (any order, repeats
allowed) plus a test-local model that overrides both ``forge`` and
``replay``, both must produce the same deliveries, counters and
shared frames.
"""

from dataclasses import replace
from typing import List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.signatures import HmacStubSigner
from repro.faults import (
    AdversarialChannel,
    AttackPlan,
    BatchRootForgery,
    BitFlipCorruption,
    BootstrapBurstForgery,
    ForgedInjection,
    ReorderJitter,
    ReplayDuplication,
    TruncationCorruption,
    WireDelivery,
)
from repro.faults.channel import frame_once
from repro.faults.models import FaultModel
from repro.network.channel import Channel
from repro.network.delay import GaussianDelay
from repro.network.loss import BernoulliLoss
from repro.packets import Packet
from repro.schemes.rohatgi import RohatgiScheme
from repro.simulation.sender import make_payloads

#: Shared forge and replay offset of :class:`ForgeAndReplay`: equal
#: arrivals make the staged tie-break order observable.
ECHO_OFFSET = 1e-3


class ForgeAndReplay(FaultModel):
    """Overrides both ``forge`` and ``replay``, with equal offsets."""

    def __init__(self, rate: float, seed: Optional[int] = None) -> None:
        self.rate = rate
        self._seed = seed
        self.reset()

    def forge(self, packet: Packet) -> List[Tuple[float, bytes]]:
        if self._rng.random() >= self.rate:
            return []
        payload = b"echo" + self._rng.getrandbits(32).to_bytes(4, "big")
        return [(ECHO_OFFSET, replace(packet, payload=payload).to_wire())]

    def replay(self, wire: bytes) -> List[float]:
        if self._rng.random() >= self.rate:
            return []
        return [ECHO_OFFSET]


def call_every_hook(adv: AdversarialChannel, packets, frames=None
                    ) -> List[WireDelivery]:
    """The call-every-hook ``transmit_wire`` loop, kept as the oracle."""
    staged: List[tuple] = []

    def stage(arrival, data, kind, seq_hint, block_hint):
        staged.append((arrival, len(staged), data, kind, seq_hint,
                       block_hint))

    for delivery in adv.channel.transmit(packets):
        packet = delivery.packet
        protected = (adv.channel.protect_signature_packets
                     and packet.is_signature_packet)
        arrival = delivery.arrival_time
        for fault in adv.plan.faults:
            arrival += fault.jitter()
        wire = (packet.to_wire() if frames is None
                else frame_once(packet, frames))
        tampered = False
        for fault in adv.plan.faults:
            mutated = fault.corrupt(wire)
            if protected:
                continue
            if mutated is not None and mutated != wire:
                wire = mutated
                tampered = True
        if tampered:
            adv.corrupted += 1
        stage(arrival, wire, "corrupted" if tampered else "genuine",
              packet.seq, packet.block_id)
        for fault in adv.plan.faults:
            for offset, forged_wire in fault.forge(packet):
                adv.injected += 1
                stage(arrival + offset, forged_wire, "forged", None,
                      packet.block_id)
            for offset in fault.replay(wire):
                adv.replayed += 1
                stage(arrival + offset, wire, "replayed", packet.seq,
                      packet.block_id)
    staged.sort(key=lambda item: (item[0], item[1]))
    return [WireDelivery(arrival_time=arrival, data=data, kind=kind,
                         seq_hint=seq_hint, block_hint=block_hint)
            for arrival, _, data, kind, seq_hint, block_hint in staged]


#: One constructor per model kind: the seven concrete fault models, then
#: the test-local forge-and-replay model.
FAULT_KINDS = (
    lambda rate: BitFlipCorruption(rate),
    lambda rate: TruncationCorruption(rate),
    lambda rate: ForgedInjection(rate, collide=rate < 0.5),
    lambda rate: ReplayDuplication(rate, copies=2),
    lambda rate: ReorderJitter(rate * 1e-3),
    lambda rate: BatchRootForgery(rate, batch_size=4, signature_size=16),
    lambda rate: BootstrapBurstForgery(burst_rate=rate, window=3,
                                       tail_rate=rate / 2),
    lambda rate: ForgeAndReplay(rate),
)

specs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(FAULT_KINDS) - 1),
              st.sampled_from([0.0, 0.3, 0.7, 1.0])),
    min_size=0, max_size=6)


def _block(size: int) -> List[Packet]:
    signer = HmacStubSigner(key=b"hook-skip")
    return RohatgiScheme().make_block(make_payloads(size), signer)


def _adversarial(spec, seed, protect, jittered) -> AdversarialChannel:
    plan = AttackPlan(tuple(FAULT_KINDS[kind](rate) for kind, rate in spec))
    plan.reseed(seed)
    delay = GaussianDelay(0.01, 0.005, seed=seed + 1) if jittered else None
    channel = Channel(loss=BernoulliLoss(0.2, seed=seed + 2), delay=delay,
                      protect_signature_packets=protect)
    return AdversarialChannel(channel, plan)


def _observed(adv, deliveries, frames):
    return ([(d.arrival_time, d.data, d.kind, d.seq_hint, d.block_hint)
             for d in deliveries],
            (adv.corrupted, adv.injected, adv.replayed), frames)


class TestHookSkip:
    @given(spec=specs, seed=st.integers(min_value=0, max_value=2 ** 20),
           protect=st.booleans(), jittered=st.booleans(),
           shared_frames=st.booleans(),
           size=st.integers(min_value=1, max_value=10),
           blocks=st.integers(min_value=1, max_value=3))
    @settings(max_examples=150, deadline=None)
    def test_same_deliveries_and_counts_as_every_hook(
            self, spec, seed, protect, jittered, shared_frames, size,
            blocks):
        packets = _block(size)

        def run(transmit):
            adv = _adversarial(spec, seed, protect, jittered)
            frames = {} if shared_frames else None
            out = []
            for _ in range(blocks):  # counters and model state carry on
                out.append(_observed(adv, transmit(adv, packets, frames),
                                     frames))
            return out

        skipping = run(lambda adv, packets, frames:
                       adv.transmit_wire(packets, frames))
        assert skipping == run(call_every_hook)

    def test_plan_records_overridden_hooks_in_order(self):
        flip, forge, replay, jitter, echo = (
            BitFlipCorruption(0.1), ForgedInjection(0.1),
            ReplayDuplication(0.1), ReorderJitter(0.01), ForgeAndReplay(0.1))
        plan = AttackPlan((echo, flip, forge, jitter, replay))
        assert plan.jitterers == (jitter,)
        assert plan.corrupters == (flip,)
        assert plan.injectors == ((echo, True, True), (forge, True, False),
                                  (replay, False, True))

    def test_protected_signature_still_draws_corrupt(self):
        packets = _block(4)
        signature = next(p for p in packets if p.is_signature_packet)
        drawn = BitFlipCorruption(1.0, seed=3)
        adv = AdversarialChannel(Channel(), AttackPlan((drawn,)))
        (delivery,) = adv.transmit_wire([signature])
        assert delivery.kind == "genuine" and adv.corrupted == 0
        # The discarded corrupt() call advanced the stream.
        assert drawn._rng.getstate() != BitFlipCorruption(
            1.0, seed=3)._rng.getstate()
