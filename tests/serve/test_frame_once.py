"""Work counts of a live session: frame once per block, decode what it did not frame.

The sender encodes each stamped packet at most once per block and only
if some receiver's channel delivers it, and puts each frame it encodes
in the pool's decode memo; the receiver pool decodes every other
distinct data buffer once per block however many receivers get it, and
never a buffer the sender framed.  Both are counted here by wrapping
``Packet.to_wire`` and the decoder the receivers look up
(``repro.simulation.receiver.packet_from_wire``).
"""

from collections import Counter

import pytest

import repro.simulation.receiver as receiver_module
from repro.network.channel import Channel
from repro.packets import Packet
from repro.serve.receiver import ReceiverPool
from repro.serve.sender import SenderService
from repro.serve.service import ServeConfig, run_live_session

#: The lossy tail makes some packets miss every one of the 16 receivers.
CONFIG = ServeConfig(receivers=16, blocks=6, block_size=10,
                     attack="pollution", loss_schedule=((0, 0.2), (4, 0.9)),
                     seed=41)


@pytest.fixture(scope="module")
def counts():
    monkeypatch = pytest.MonkeyPatch()
    encodes = Counter()         # id(packet) -> to_wire calls
    alive = []                  # every encoded packet: ids stay unique
    stamped = {}                # id(packet) -> (block, packet)
    delivered = set()           # id(packet) of channel deliveries
    decodes = [0]
    ingested = [set()]          # distinct data buffers, per block
    framed = [set()]            # genuine frames the sender encoded, per block
    decoded = set()             # every buffer the receivers decoded
    per_block = []              # (decodes, distinct buffers, framed) per block

    to_wire = Packet.to_wire
    decode = receiver_module.packet_from_wire
    transmit = Channel.transmit
    transmit_block = SenderService._transmit_block
    ingest_run = receiver_module.ChainReceiver.ingest_run
    wait_block = ReceiverPool.wait_block

    def counted_to_wire(packet):
        alive.append(packet)
        encodes[id(packet)] += 1
        wire = to_wire(packet)
        if id(packet) in stamped:
            framed[0].add(wire)
        return wire

    def counted_decode(data):
        decodes[0] += 1
        decoded.add(data)
        return decode(data)

    def recorded_transmit(channel, packets):
        deliveries = transmit(channel, packets)
        delivered.update(id(d.packet) for d in deliveries)
        return deliveries

    async def recorded_transmit_block(sender, pending):
        for group in pending.groups.values():
            for packet in group.stamped:
                stamped[id(packet)] = (pending.block_id, packet)
        return await transmit_block(sender, pending)

    def recorded_ingest_run(verifier, deliveries, on_ingest=None):
        ingested[0].update(delivery.data for delivery in deliveries)
        return ingest_run(verifier, deliveries, on_ingest)

    async def segmented_wait_block(pool, block_id):
        reports = await wait_block(pool, block_id)
        per_block.append((decodes[0], ingested[0], framed[0]))
        decodes[0] = 0
        ingested[0] = set()
        framed[0] = set()
        return reports

    monkeypatch.setattr(Packet, "to_wire", counted_to_wire)
    monkeypatch.setattr(receiver_module, "packet_from_wire", counted_decode)
    monkeypatch.setattr(Channel, "transmit", recorded_transmit)
    monkeypatch.setattr(SenderService, "_transmit_block",
                        recorded_transmit_block)
    monkeypatch.setattr(receiver_module.ChainReceiver, "ingest_run",
                        recorded_ingest_run)
    monkeypatch.setattr(ReceiverPool, "wait_block", segmented_wait_block)
    try:
        result = run_live_session(CONFIG)
    finally:
        monkeypatch.undo()
    return result, encodes, stamped, delivered, per_block, decoded


def test_session_is_sound(counts):
    result = counts[0]
    assert result.forged_accepted == 0


def test_one_decode_per_distinct_buffer_per_block(counts):
    per_block = counts[4]
    assert len(per_block) == CONFIG.blocks
    for decodes, ingested, framed in per_block:
        assert framed & ingested
        # A framed packet whose every delivery was bit-flipped is framed
        # but never ingested: its receivers get (and decode) other bytes.
        unframed = ingested - framed
        assert unframed, "nothing forged or corrupted reached a receiver"
        assert decodes == len(unframed)


def test_no_framed_buffer_is_ever_decoded(counts):
    per_block, decoded = counts[4], counts[5]
    framed = set().union(*(block[2] for block in per_block))
    assert framed
    assert not framed & decoded


def test_each_delivered_packet_is_framed_once_per_block(counts):
    _, encodes, stamped, delivered, _, _ = counts
    genuine = {key: encodes[key] for key in stamped if key in encodes}
    assert genuine, "no genuine packet was framed"
    assert max(genuine.values()) == 1
    # Framed exactly when some receiver's channel delivered it: a lost
    # packet is never encoded.
    assert set(genuine) == {key for key in stamped if key in delivered}
    lost = [key for key in stamped if key not in delivered]
    assert lost, "the config must lose a whole packet somewhere"


def test_forgeries_are_still_framed_per_receiver(counts):
    _, encodes, stamped, _, _, _ = counts
    forged = sum(count for key, count in encodes.items()
                 if key not in stamped)
    assert forged > 0
