"""TESLA receiver hardening: replays, forged keys, bogus intervals.

The TESLA security argument assumes the receiver only trusts keys that
authenticate against the bootstrap commitment and never revises a
verdict.  These tests pin those defensive properties against the
adversarial channel's packet classes.
"""

from dataclasses import replace

import pytest

from repro.crypto.signatures import HmacStubSigner
from repro.schemes.tesla import (
    TeslaParameters,
    TeslaReceiver,
    TeslaSender,
    _decode_extra,
    _encode_extra,
)


@pytest.fixture
def signer():
    return HmacStubSigner(key=b"tesla-hardening")


@pytest.fixture
def session(signer):
    parameters = TeslaParameters(interval=0.05, lag=2, chain_length=32)
    sender = TeslaSender(parameters, signer, seed=b"\x02" * 16)
    receiver = TeslaReceiver(sender.bootstrap_packet(), signer)
    return sender, receiver


def _run_stream(sender, receiver, count=6):
    packets = [sender.send(b"payload %d" % i, 0.01 + 0.05 * i)
               for i in range(count)]
    for packet in packets:
        receiver.receive(packet, packet.send_time + 0.001)
    last = sender.parameters.interval_of(packets[-1].send_time)
    for packet in sender.flush_keys(last):
        receiver.receive(packet, packet.send_time + 0.001)
    return packets


class TestReplayFinality:
    def test_replay_of_pending_packet_dropped(self, session):
        sender, receiver = session
        packet = sender.send(b"hello", 0.01)
        receiver.receive(packet, 0.011)
        assert receiver.verdicts[packet.seq].status == "pending"
        receiver.receive(packet, 0.012)
        assert receiver.replays_dropped == 1
        assert receiver.pending_count == 1  # not buffered twice

    def test_replay_of_verified_packet_dropped(self, session):
        sender, receiver = session
        packets = _run_stream(sender, receiver)
        assert receiver.verdicts[packets[0].seq].status == "verified"
        receiver.receive(packets[0], 10.0)
        assert receiver.replays_dropped == 1
        assert receiver.verdicts[packets[0].seq].status == "verified"

    def test_seq_colliding_forgery_cannot_overwrite(self, session):
        sender, receiver = session
        packets = _run_stream(sender, receiver)
        forged = replace(packets[2], payload=b"forged payload")
        receiver.receive(forged, 10.0)
        assert receiver.verdicts[packets[2].seq].status == "verified"
        # Other content for a verified slot is a forgery, not a replay.
        assert receiver.forged_rejected == 1
        assert receiver.replays_dropped == 0


    def test_forgery_first_leaves_the_slot_to_the_genuine(self, session):
        sender, receiver = session
        packets = [sender.send(b"payload %d" % i, 0.01 + 0.05 * i)
                   for i in range(6)]
        forged = replace(packets[2], payload=b"forged payload")
        for packet in packets:
            if packet is packets[2]:
                receiver.receive(forged, packet.send_time)
            receiver.receive(packet, packet.send_time + 0.001)
        for packet in sender.flush_keys(6):
            receiver.receive(packet, packet.send_time + 0.001)
        # Both waited for the key; the forgery failed its MAC and the
        # genuine packet took the slot.
        assert receiver.verdicts[packets[2].seq].status == "verified"
        assert receiver.forged_rejected == 1
        assert receiver.replays_dropped == 0


class TestForgedKeys:
    def test_forged_disclosed_key_rejected(self, session):
        sender, receiver = session
        packet = sender.send(b"hello", 0.01)
        receiver.receive(packet, 0.011)
        # A disclosure-only packet carrying a fabricated key for an
        # in-range index must fail chain authentication.
        fake = replace(
            packet, seq=packet.seq + 50,
            extra=_encode_extra(0, b"\x00" * 32, 3, b"\xde\xad" * 16),
        )
        receiver.receive(fake, 0.2)
        assert receiver.rejected_keys == 1
        # The pending packet is still pending — the fake key must not
        # have flushed (or poisoned) it.
        assert receiver.verdicts[packet.seq].status == "pending"

    def test_key_index_beyond_commitment_rejected(self, session):
        sender, receiver = session
        chain_length = sender.parameters.chain_length
        fake = sender.send(b"x", 0.01)
        fake = replace(
            fake, seq=fake.seq + 50,
            extra=_encode_extra(0, b"\x00" * 32, chain_length + 10_000,
                                b"\x01" * 16),
        )
        receiver.receive(fake, 0.2)
        assert receiver.rejected_keys == 1

    def test_genuine_stream_unaffected_by_forged_keys(self, session):
        sender, receiver = session
        bogus = _encode_extra(0, b"\x00" * 32, 5, b"\xff" * 16)
        template = sender.send(b"seed", 0.01)
        receiver.receive(template, 0.011)
        for i in range(4):
            receiver.receive(replace(template, seq=900 + i, extra=bogus),
                             0.05 * i)
        packets = _run_stream(sender, receiver)
        assert receiver.rejected_keys == 4
        for packet in packets:
            assert receiver.verdicts[packet.seq].status == "verified"


class TestBogusIntervals:
    def test_interval_beyond_chain_not_buffered(self, session):
        sender, receiver = session
        chain_length = sender.parameters.chain_length
        genuine = sender.send(b"x", 0.01)
        _, tag_and_rest = genuine.extra[:12], genuine.extra[12:]
        forged = replace(
            genuine, seq=genuine.seq + 1,
            extra=_encode_extra(chain_length + 7, b"\x00" * 32, 0, b""),
        )
        receiver.receive(forged, 0.02)
        verdict = receiver.verdicts[forged.seq]
        assert verdict.status == "bad-key"
        # It never enters the pending buffer: no key will ever flush it.
        assert receiver.pending_count == 0

    def test_unsafe_packet_flagged_not_buffered(self, session):
        sender, receiver = session
        packet = sender.send(b"x", 0.01)
        # Arrives after its key's disclosure time: security condition
        # fails, so the MAC proves nothing.
        late = sender.parameters.disclosure_time(
            sender.parameters.interval_of(0.01)) + 1.0
        receiver.receive(packet, late)
        assert receiver.verdicts[packet.seq].status == "unsafe"
        assert receiver.pending_count == 0

    def test_unsafe_copy_first_cannot_lock_the_genuine_out(self, session):
        sender, receiver = session
        packets = [sender.send(b"payload %d" % i, 0.01 + 0.05 * i)
                   for i in range(12)]
        victim = packets[9]
        interval, tag, index, key = _decode_extra(victim.extra,
                                                  receiver.mac.tag_size)
        # The same packet claiming an interval whose key is long out:
        # its own interval field makes it unsafe.
        early = replace(victim, extra=_encode_extra(1, tag, index, key))
        for packet in packets:
            if packet is victim:
                receiver.receive(early, packet.send_time)
                assert receiver.verdicts[victim.seq].status == "unsafe"
            receiver.receive(packet, packet.send_time + 0.001)
        last = sender.parameters.interval_of(packets[-1].send_time)
        for packet in sender.flush_keys(last):
            receiver.receive(packet, packet.send_time + 0.001)
        assert interval > 1
        assert receiver.verdicts[victim.seq].status == "verified"
        assert receiver.forged_rejected == 1
        assert receiver.replays_dropped == 0
        assert all(receiver.verdicts[packet.seq].verified
                   for packet in packets)
