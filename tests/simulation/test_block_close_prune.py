"""Differential test: the pruning block close against the unpruned one.

A live receiver closes a block once ``settle`` has read it:
:meth:`~repro.simulation.stream_receiver.StreamReceiver.finish_block`
calls :meth:`~repro.simulation.receiver.ChainReceiver.close_block`,
which drops the block's outcomes, trusted hashes and audited accepted
digests and refuses every later frame at or below the closed horizon.
The close it replaced only evicted buffered candidates and kept the
rest for the whole session; it is kept here as the oracle,
:class:`_Unpruned`.  Both evict the same candidates: every one that
claims the closed block, and every one at or below its last sequence
number whatever block it claims (a bit flip may have changed that).

Random multi-block streams of EMSS, AC, sign-each, Wong–Lam and the
online Gennaro–Rohatgi chain — with loss, reordering within a block,
the ``pollution`` and ``dos`` attack mixes, a fresh-sequence forgery,
a message-buffer cap of None/3/16 and lifecycle tracing on and off —
are played through a live :class:`~repro.serve.receiver.ReceiverSession`
over each receiver.  With no frame for a closed block, every settled
record, transcript line, tally, counter (``evicted`` included), the
message-buffer peak, every lifecycle event and every audited digest
agree; the hash-buffer level and peak may only fall.

A frame that decodes to another block's sequence number (a bit flip in
the sequence field) is left out of those streams: one claiming a
closed block is a late frame, and one claiming a later block's slot
gave the oracle a stale arrival time for it.  Both have their own
tests below, as do the four late frames of a closed block (a replayed
genuine packet, a replayed ``P_sign``, a collided forgery and the
genuine packet of a lost slot) and the audit of a block closed before
it was settled.
"""

from dataclasses import replace
from functools import lru_cache
from random import Random
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.conformance import attack_mix
from repro.crypto.hashing import sha256
from repro.crypto.signatures import HmacStubSigner
from repro.exceptions import WireDecodeError
from repro.faults import WireDelivery
from repro.faults.models import FRESH_SEQ_OFFSET
from repro.obs.lifecycle import set_lifecycle
from repro.packets import Packet, packet_from_wire
from repro.schemes import make_scheme
from repro.serve.receiver import BlockTruth, ReceiverSession
from repro.serve.transport import ControlFrame
from repro.simulation.adversarial import AttackSchedule
from repro.simulation.receiver import ChainReceiver
from repro.simulation.trials import SeededChannels

from tests.wire import ingest_one

SIGNER = HmacStubSigner(key=b"block-close")
SCHEMES = ("emss(2,1)", "ac(2,2)", "sign-each", "wong-lam", "rohatgi-online")
BLOCKS = 3


class _Audited(ChainReceiver):
    """Logs every batch of digests the soundness audit reads."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.audit_log: List[list] = []

    def fresh_accepted(self):
        fresh = list(super().fresh_accepted())
        self.audit_log.append(fresh)
        return iter(fresh)


class _Unpruned(_Audited):
    """The oracle: a block close only evicts buffered candidates.

    It evicts the candidates that claim the block or sit at or below
    ``last_seq``, counted in ``evicted``, and keeps everything else.
    """

    def close_block(self, block_id: int, last_seq: int) -> None:
        buffered = self._buffered  # noqa: SLF001
        dropped = 0
        for seq in list(buffered):
            candidates = buffered[seq]
            keep = [entry for entry in candidates
                    if seq > last_seq and entry[0].block_id != block_id]
            dropped += len(candidates) - len(keep)
            if keep:
                buffered[seq] = keep
            else:
                del buffered[seq]
        self._buffered_total -= dropped  # noqa: SLF001
        self.evicted += dropped


class _Recorder:
    enabled = True

    def __init__(self) -> None:
        self.events: List[tuple] = []

    def record(self, *args, **attrs) -> None:
        self.events.append((args, sorted(attrs.items())))


@lru_cache(maxsize=None)
def _trial(name: str, size: int):
    return make_scheme(name).new_trial(SIGNER, size, BLOCKS, seed=1)


def _blocks(trial):
    """The trial's packets, one list per block, in send order."""
    blocks: dict = {}
    for packet in trial.packets:
        blocks.setdefault(packet.block_id, []).append(packet)
    return [blocks[block_id] for block_id in sorted(blocks)]


def _claims(data: bytes):
    """``(block_id, seq)`` the frame decodes to, else ``None``."""
    try:
        packet = packet_from_wire(data)
    except WireDecodeError:
        return None
    return packet.block_id, packet.seq


def _stream(name, size, loss, mix, seed, fresh, shuffle):
    """Every block's deliveries, each a frame of its own block only."""
    trial = _trial(name, size)
    scheme = make_scheme(name)
    channels = SeededChannels.for_scheme(scheme, loss, seed)
    rng = Random(seed)
    stream = []
    for index, packets in enumerate(_blocks(trial)):
        channel = channels(index)
        if mix is not None:
            channel = AttackSchedule(attack_mix(mix), seed)(channel, index)
            deliveries = channel.transmit_wire(packets)
        else:
            deliveries = [WireDelivery(d.arrival_time, d.packet.to_wire(),
                                       "genuine", d.packet.seq,
                                       d.packet.block_id)
                          for d in channel.transmit(packets)]
        if fresh:
            forged = replace(packets[0], seq=packets[0].seq
                             + FRESH_SEQ_OFFSET, payload=b"fresh")
            deliveries.append(WireDelivery(0.0, forged.to_wire(), "forged",
                                           None, index))
        first, last = packets[0].seq, packets[-1].seq
        deliveries = [
            d for d in deliveries
            if _claims(d.data) is None
            or first <= _claims(d.data)[1] <= last
            or _claims(d.data)[1] > FRESH_SEQ_OFFSET]
        if shuffle:
            rng.shuffle(deliveries)
        start = 10.0 * index
        deliveries = [replace(d, arrival_time=start + 0.001 * (k + 1))
                      for k, d in enumerate(deliveries)]
        stream.append((index, packets, deliveries))
    return stream


def _session(cls, trial, max_buffered):
    session = ReceiverSession("r0", SIGNER)
    stream = session.stream
    factory = trial.new_verifier
    stream._verifier = cls(  # noqa: SLF001
        *factory.args, **factory.keywords, max_buffered=max_buffered,
        on_verified=stream._note_verified)  # noqa: SLF001
    return session


def _authentic(packets):
    return {packet.seq: sha256.digest(packet.auth_bytes())
            for packet in packets}


def _settled(verifier, packets):
    records = [verifier.verdict(packet.seq) for packet in packets]
    return [None if r is None else
            (r.seq, r.verified, r.forged, r.arrival_time, r.verified_time)
            for r in records]


def _play(cls, name, stream, max_buffered, traced, late=None):
    """Each block's settled records and everything the session kept.

    ``late``, when given, maps a block index to frames delivered at
    the start of that block.
    """
    trial = _trial(name, len(stream[0][1]))
    session = _session(cls, trial, max_buffered)
    recorder = _Recorder() if traced else None
    previous = set_lifecycle(recorder)
    observed = []
    try:
        for index, packets, deliveries in stream:
            session.ledger[("r0", index)] = BlockTruth(
                scheme=name, phase="p",
                intact=frozenset(d.seq_hint for d in deliveries
                                 if d.kind == "genuine"),
                digests=_authentic(packets))
            hook = session._trace_ingest if traced else None  # noqa: SLF001
            if late is not None and index in late:
                session.stream.ingest_run(late[index], hook)
            session.stream.ingest_run(deliveries, hook)
            verifier = session.stream.verifier
            settled = _settled(verifier, packets)
            session.close_block(
                ControlFrame(index, packets[0].seq, packets[-1].seq),
                now=10.0 * index + 9.0)
            if not issubclass(cls, _Unpruned):
                _assert_closed(verifier, packets[-1].seq)
            observed.append(settled)
    finally:
        set_lifecycle(previous)
    return session, observed, recorder


def _counters(verifier):
    return (verifier.undecodable, verifier.forged_rejected,
            verifier.replays_dropped, verifier.evicted,
            verifier.cap_evictions, verifier.buffered_count,
            verifier.message_buffer_peak)


def _held(verifier):
    """Every sequence number the verifier still holds state for."""
    return (set(verifier.outcomes) | set(verifier.accepted_digests())
            | set(verifier._trusted)  # noqa: SLF001
            | set(verifier._buffered))  # noqa: SLF001


def _assert_closed(verifier, horizon):
    """What every close leaves, whatever a candidate claims and any cap.

    Nothing at or below ``horizon``, and no unverified record without a
    candidate or a trusted hash for its slot.
    """
    assert not {seq for seq in _held(verifier) if seq <= horizon}
    for seq, outcome in verifier.outcomes.items():
        assert (outcome.verified or seq in verifier._buffered  # noqa: SLF001
                or seq in verifier._trusted)  # noqa: SLF001


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(SCHEMES), size=st.integers(4, 8),
       loss=st.sampled_from([0.0, 0.2, 0.4]),
       mix=st.sampled_from([None, "pollution", "dos"]),
       seed=st.integers(0, 2 ** 16), fresh=st.booleans(),
       shuffle=st.booleans(), max_buffered=st.sampled_from([None, 3, 16]),
       traced=st.booleans())
def test_pruned_close_matches_the_unpruned_receiver(
        name, size, loss, mix, seed, fresh, shuffle, max_buffered, traced):
    stream = _stream(name, size, loss, mix, seed, fresh, shuffle)
    oracle, expected, oracle_events = _play(_Unpruned, name, stream,
                                            max_buffered, traced)
    pruned, got, events = _play(_Audited, name, stream, max_buffered,
                                traced)
    assert got == expected
    assert pruned.transcript == oracle.transcript
    assert pruned.stats == oracle.stats
    assert pruned.reports == oracle.reports
    assert pruned.forged_accepted == 0
    assert pruned.stream.delivered == oracle.stream.delivered
    assert pruned.stream.skipped == oracle.stream.skipped
    if traced:
        assert events.events == oracle_events.events
    verifier, unpruned = pruned.stream.verifier, oracle.stream.verifier
    assert _counters(verifier) == _counters(unpruned)
    assert verifier.audit_log == unpruned.audit_log
    assert verifier.pending_hash_count <= unpruned.pending_hash_count
    assert verifier.hash_buffer_peak <= unpruned.hash_buffer_peak
    horizon = stream[-1][1][-1].seq
    assert not {seq for seq in _held(verifier) if seq <= horizon}
    assert verifier.pending_hash_count == 0
    # Above the horizon only a candidate no close evicted keeps a slot
    # (a fresh-sequence forgery whose block id a bit flip changed).
    assert set(verifier.outcomes) <= set(verifier._buffered)  # noqa: SLF001


def test_the_streams_reach_what_the_differential_compares():
    # Over a fixed sweep the oracle evicts, rejects, drops replays and
    # hits the cap, and pruning lowers the hash-buffer level and peak,
    # or the differential above is vacuous.
    reached = set()
    for name in SCHEMES:
        for mix in (None, "pollution", "dos"):
            stream = _stream(name, 6, 0.2, mix, 5, True, True)
            oracle = _play(_Unpruned, name, stream, 3, False)[0]
            pruned = _play(_Audited, name, stream, 3, False)[0]
            unpruned, verifier = (oracle.stream.verifier,
                                  pruned.stream.verifier)
            for flag, hit in (
                    ("evicted", unpruned.evicted),
                    ("cap", unpruned.cap_evictions),
                    ("forged-reject", unpruned.forged_rejected),
                    ("replay", unpruned.replays_dropped),
                    ("undecodable", unpruned.undecodable),
                    ("level", unpruned.pending_hash_count
                     - verifier.pending_hash_count),
                    ("peak", unpruned.hash_buffer_peak
                     - verifier.hash_buffer_peak)):
                if hit > 0:
                    reached.add(flag)
    assert reached == {"evicted", "cap", "forged-reject", "replay",
                       "undecodable", "level", "peak"}


# -- late frames ---------------------------------------------------------

def _roles(block):
    """A block's signature packet, a lost packet and a delivered one."""
    signed = next(p for p in reversed(block) if p.signature is not None)
    lost, genuine = [p for p in block if p is not signed][:2]
    return signed, lost, genuine


def _lossy_stream(name, size=6):
    """Three blocks; block 0 lost one packet, the rest arrived."""
    packets = _blocks(_trial(name, size))
    stream = []
    for index, block in enumerate(packets):
        lost = _roles(block)[1]
        kept = [p for p in block if index != 0 or p is not lost]
        stream.append((index, block, [
            WireDelivery(10.0 * index + 0.001 * (k + 1), p.to_wire(),
                         "genuine", p.seq, p.block_id)
            for k, p in enumerate(kept)]))
    return stream


def _late_frames(name):
    signed, lost, genuine = _roles(_blocks(_trial(name, 6))[0])
    return {
        "replayed genuine": (genuine.to_wire(), "replayed", genuine.seq),
        "replayed P_sign": (signed.to_wire(), "replayed", signed.seq),
        "collided forgery": (replace(genuine, payload=b"late").to_wire(),
                             "forged", None),
        "lost slot's genuine": (lost.to_wire(), "genuine", lost.seq),
    }


@pytest.mark.parametrize("name", SCHEMES)
@pytest.mark.parametrize("case", ["replayed genuine", "replayed P_sign",
                                  "collided forgery", "lost slot's genuine"])
def test_a_late_frame_is_refused_and_counted_once(name, case):
    stream = _lossy_stream(name)
    data, kind, seq_hint = _late_frames(name)[case]
    # Delivered after block 1 closed: block 0 is below the horizon.
    late = {2: [WireDelivery(20.0, data, kind, seq_hint, 0)]}
    baseline, expected, _ = _play(_Audited, name, stream, None, False)
    session, got, recorder = _play(_Audited, name, stream, None, True,
                                   late=late)
    verifier = session.stream.verifier
    assert got == expected
    assert session.transcript == baseline.transcript
    assert session.stats == baseline.stats
    assert session.forged_accepted == 0
    assert verifier.audit_log == baseline.stream.verifier.audit_log
    assert verifier.evicted == baseline.stream.verifier.evicted + 1
    assert verifier.cap_evictions == 0
    assert verifier.message_buffer_peak == \
        baseline.stream.verifier.message_buffer_peak
    (event,) = [e for e in recorder.events
                if e[0][3] == "ingest" and e[0][5] == 20.0]
    assert event[0][4] == "reject"
    assert ("detail", "block-closed") in event[1]


def test_a_late_signature_would_pass_its_check_without_the_horizon():
    # What the refusal guards against: the unpruned receiver, once its
    # state for the block is gone, verifies a late P_sign again and the
    # next settle audits it against the wrong block.
    class _Forgetful(_Audited):
        def close_block(self, block_id, last_seq):
            super().close_block(block_id, last_seq)
            self._horizon = 0  # noqa: SLF001 - the check placed too low

    name = "emss(2,1)"
    data, kind, seq_hint = _late_frames(name)["replayed P_sign"]
    late = {2: [WireDelivery(20.0, data, kind, seq_hint, 0)]}
    session, _, _ = _play(_Forgetful, name, _lossy_stream(name), None,
                          False, late=late)
    assert session.forged_accepted == 1
    refused, _, _ = _play(_Audited, name, _lossy_stream(name), None,
                          False, late=late)
    assert refused.forged_accepted == 0


def test_the_unpruned_receiver_accepts_a_lost_slots_late_packet():
    # Its trusted hash outlives the block, so the genuine packet of a
    # lost slot verifies late; pruning refuses it instead.
    name = "emss(2,1)"
    data, kind, seq_hint = _late_frames(name)["lost slot's genuine"]
    late = {2: [WireDelivery(20.0, data, kind, seq_hint, 0)]}
    oracle, _, _ = _play(_Unpruned, name, _lossy_stream(name), None,
                         False, late=late)
    assert oracle.stream.verifier.verdict(seq_hint).verified
    pruned, _, _ = _play(_Audited, name, _lossy_stream(name), None,
                         False, late=late)
    assert pruned.stream.verifier.verdict(seq_hint) is None
    assert pruned.stream.verifier.evicted == \
        oracle.stream.verifier.evicted + 1


def test_a_frame_claiming_a_later_slot_leaves_no_stale_arrival():
    # A corrupted copy naming block 0 but a block-1 sequence number is
    # buffered until block 0 closes.  The oracle kept its outcome, so
    # the genuine packet's delay ran from the copy's arrival.
    name = "emss(2,1)"
    stream = _lossy_stream(name)
    target = stream[1][1][0]
    stray = replace(stream[0][1][0], seq=target.seq, payload=b"stray")
    assert stray.block_id == 0
    index, packets, deliveries = stream[0]
    stream[0] = (index, packets, deliveries + [
        WireDelivery(9.0, stray.to_wire(), "corrupted", None, 0)])
    oracle, expected, _ = _play(_Unpruned, name, stream, None, False)
    pruned, got, _ = _play(_Audited, name, stream, None, False)
    position = [p.seq for p in stream[1][1]].index(target.seq)
    assert expected[1][position][3] == 9.0
    assert got[1][position][3] == stream[1][2][0].arrival_time
    assert pruned.stream.verifier.evicted == oracle.stream.verifier.evicted


# -- what a close frees, whatever a candidate claims ---------------------

def test_a_candidate_whose_block_id_a_bit_flip_changed_goes_at_close():
    # Block 0 lost its P_sign, so every packet waits as a candidate,
    # and a corrupted copy of packet 1 claims block 7.  A close that
    # matched candidates on their claimed block kept that copy.
    block = _blocks(_trial("emss(2,1)", 6))[0]
    flipped = replace(block[0], block_id=7)
    verifier = _trial("emss(2,1)", 6).new_verifier()
    for packet in block[:-1] + [flipped]:
        ingest_one(verifier, packet.to_wire())
    assert verifier.buffered_count == len(block)
    verifier.close_block(0, block[-1].seq)
    assert verifier.buffered_count == 0
    assert verifier.evicted == len(block)
    _assert_closed(verifier, block[-1].seq)
    assert not _held(verifier)


def test_a_cap_evicted_slot_leaves_no_record_after_the_close():
    # Under a one-candidate cap a second fresh-sequence forgery evicts
    # the first; the first's record outlived every close.
    verifier = _trial("emss(2,1)", 6).new_verifier(max_buffered=1)
    first, second = (Packet(seq=FRESH_SEQ_OFFSET + k, block_id=0,
                            payload=b"fresh %d" % k) for k in (1, 2))
    ingest_one(verifier, first.to_wire())
    ingest_one(verifier, second.to_wire())
    assert verifier.cap_evictions == 1
    assert not verifier.verdict(first.seq).verified
    verifier.close_block(0, 6)
    assert verifier.verdict(first.seq) is None
    assert verifier.verdict(second.seq) is None
    assert verifier.outcomes == {}
    _assert_closed(verifier, 6)


# -- the audit -----------------------------------------------------------

@pytest.mark.parametrize("name", SCHEMES)
def test_a_block_closed_before_its_settle_is_still_audited(name):
    blocks = _blocks(_trial(name, 6))
    verifier = _trial(name, 6).new_verifier()
    for packet in blocks[0]:
        verifier.receive(packet, 0.0)
    accepted = dict(verifier.accepted_digests())
    assert accepted == _authentic(blocks[0])
    verifier.close_block(0, blocks[0][-1].seq)
    assert dict(verifier.fresh_accepted()) == accepted
    for packet in blocks[1]:
        verifier.receive(packet, 1.0)
    verifier.close_block(1, blocks[1][-1].seq)
    # Block 1 was never audited: it stays; block 0 was, and is gone.
    assert dict(verifier.accepted_digests()) == _authentic(blocks[1])
    assert dict(verifier.fresh_accepted()) == _authentic(blocks[1])
    verifier.close_block(1, blocks[1][-1].seq)
    assert verifier.accepted_digests() == {}
    assert list(verifier.fresh_accepted()) == []
