"""Differential test: an unattacked wire channel against plain framing.

The live sender sends every cell through an
:class:`~repro.faults.AdversarialChannel`; an unattacked session's plan
is the empty :class:`~repro.faults.AttackPlan`.  The sender used to
take a plain :class:`~repro.network.channel.Channel` for such a cell
and frame its deliveries itself; :func:`plain_wire` below is that
code, kept here as a test-only oracle.

Random lossy channels with Gaussian delay (reordering, and arrival
ties from clamped samples and shared send times) run two receivers'
cells of one block through both, each side with its own fresh
``seq -> wire bytes`` map (the sender's ``_GroupFrames``) and decode
memo, shared by its two cells as the sender shares them.  Everything
observable must agree: every delivery field, the frames map and memo
writes in order, and the channels' ``sent``/``dropped`` counts.
"""

from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.signatures import HmacStubSigner
from repro.faults import AdversarialChannel, AttackPlan, WireDelivery
from repro.faults.channel import frame_once
from repro.network.channel import Channel
from repro.network.delay import GaussianDelay
from repro.network.loss import BernoulliLoss
from repro.packets import Packet
from repro.schemes.registry import make_scheme
from repro.serve.sender import _GroupFrames, _GroupPackets
from repro.simulation.sender import make_payloads

SIGNER = HmacStubSigner(key=b"wire-channel-test")


def plain_wire(channel: Channel, stamped: List[Packet],
               frames: Dict[int, bytes]) -> List[WireDelivery]:
    """The sender's former plain-channel cell: genuine frames only."""
    return [
        WireDelivery(arrival_time=delivery.arrival_time,
                     data=frame_once(delivery.packet, frames),
                     kind="genuine", seq_hint=delivery.packet.seq,
                     block_hint=delivery.packet.block_id)
        for delivery in channel.transmit(stamped)
    ]


def _group(block_size, t_transmit, block_id):
    block = make_scheme("emss(2,1)").make_block(
        make_payloads(block_size), SIGNER, block_id=block_id,
        base_seq=1 + block_id * block_size, start=0.25,
        t_transmit=t_transmit)
    return _GroupPackets(
        scheme_name="emss(2,1)", phase="steady", stamped=block,
        digests={packet.seq: digest
                 for packet, digest in zip(block, block.digests)})


cells = st.fixed_dictionaries({
    "loss_rate": st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
    "loss_seed": st.integers(0, 2**32 - 1),
    "delay_seed": st.integers(0, 2**32 - 1),
    "protect": st.booleans(),
})


@settings(max_examples=60, deadline=None)
@given(first=cells, second=cells,
       block_size=st.integers(2, 24),
       block_id=st.integers(0, 5),
       t_transmit=st.sampled_from([0.0, 0.001, 0.01]),
       mean=st.sampled_from([0.0, 0.005, 0.05]),
       std=st.sampled_from([0.0, 0.002, 0.02]),
       floor=st.sampled_from([0.0, 0.004]))
def test_empty_plan_frames_exactly_like_a_plain_channel(
        first, second, block_size, block_id, t_transmit, mean, std, floor):
    packets = _group(block_size, t_transmit, block_id)

    def channel(cell):
        return Channel(loss=BernoulliLoss(cell["loss_rate"],
                                          seed=cell["loss_seed"]),
                       delay=GaussianDelay(mean, std, floor=floor,
                                           seed=cell["delay_seed"]),
                       protect_signature_packets=cell["protect"])

    want_memo, got_memo = {}, {}
    want_frames = _GroupFrames(packets, want_memo)
    got_frames = _GroupFrames(packets, got_memo)
    for cell in (first, second):
        oracle = channel(cell)
        wired = AdversarialChannel(channel(cell), AttackPlan())
        want = plain_wire(oracle, packets.stamped, want_frames)
        got = wired.transmit_wire(packets.stamped, got_frames)
        assert [(d.arrival_time, d.data, d.kind, d.seq_hint, d.block_hint)
                for d in got] \
            == [(d.arrival_time, d.data, d.kind, d.seq_hint, d.block_hint)
                for d in want]
        assert (wired.sent, wired.dropped) == (oracle.sent, oracle.dropped)
        assert (wired.corrupted, wired.injected, wired.replayed) == (0, 0, 0)
    assert list(got_frames.items()) == list(want_frames.items())
    assert [(wire, id(packet), digest)
            for wire, (packet, digest) in got_memo.items()] \
        == [(wire, id(packet), digest)
            for wire, (packet, digest) in want_memo.items()]
