"""Differential test: run-wise ingest against the per-frame oracle.

A live receiver takes its transport's deliveries a run at a time:
:meth:`~repro.serve.receiver.ReceiverSession.run` hands each run of
data frames to :meth:`~repro.simulation.stream_receiver.StreamReceiver.\
ingest_run`, one loop over the pool's wire memo and the verifier, with
the lifecycle ``ingest`` hook called per frame inside it.  The
per-frame path it replaced is kept here as the oracle: one decode (memo
lookup, strict decoder, digest) and one ``ingest`` per frame, one
``_release`` per frame, and the session's per-frame tracing.

Random adversarial delivery sequences — genuine frames of two blocks,
bit-flipped copies, truncations, garbage, a mangled control frame,
replays, forged signature packets and same-sequence collisions past
``max_candidates`` — are split into random runs and played through
both, with and without a shared wire memo, with and without a message
buffer cap, and with lifecycle tracing on and off.  Every verdict
record, the accepted digests in acceptance order, every counter, both
buffer peaks, the delivered payloads and the lifecycle events must
agree.
"""

import asyncio
from dataclasses import replace
from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.signatures import HmacStubSigner
from repro.exceptions import WireDecodeError
from repro.faults import ATTACK_KINDS, WireDelivery
from repro.obs.lifecycle import NOISE_SEQ, get_lifecycle, set_lifecycle
from repro.packets import WIRE_HEADER_SIZE, packet_from_wire
from repro.schemes.emss import EmssScheme
from repro.serve.receiver import ReceiverSession
from repro.serve.transport import CONTROL_PREFIX, decode_control
from repro.simulation.receiver import DEFAULT_MAX_CANDIDATES
from repro.simulation.sender import make_payloads
from repro.simulation.stream_receiver import StreamReceiver

_SIGNER = HmacStubSigner(key=b"ingest-run")


def _flip(wire: bytes, offset: int) -> bytes:
    mutated = bytearray(wire)
    span = len(wire) - WIRE_HEADER_SIZE
    mutated[WIRE_HEADER_SIZE + offset % span] ^= 0x10
    return bytes(mutated)


def _pool():
    """Frames to draw from: ``(data, kind, seq_hint, block_hint)``."""
    scheme = EmssScheme(2, 1)
    frames = []
    for block_id, base in ((0, 1), (1, 9)):
        packets = scheme.make_block(make_payloads(8), _SIGNER,
                                    block_id=block_id, base_seq=base)
        stamped = [packet.with_send_time(0.001 * index)
                   for index, packet in enumerate(packets)]
        for packet in stamped:
            wire = packet.to_wire()
            frames.append((wire, "genuine", packet.seq, block_id))
            frames.append((_flip(wire, packet.seq * 7), "corrupted",
                           packet.seq, block_id))
        frames.append((stamped[3].to_wire()[:20], "corrupted",
                       stamped[3].seq, block_id))
        frames.append((replace(stamped[-1], payload=b"forged").to_wire(),
                       "forged", None, block_id))
    # Same-sequence collisions: more candidates than a slot holds.
    victim = packet_from_wire(frames[4][0])
    for index in range(DEFAULT_MAX_CANDIDATES + 2):
        forged = replace(victim, payload=b"collide%d" % index)
        frames.append((forged.to_wire(), "forged", None, 0))
    frames.append((b"\x00garbage", "forged", None, None))
    frames.append((CONTROL_PREFIX + b"mangled", "corrupted", None, None))
    return frames


POOL = _pool()


def _deliveries(picks) -> List[WireDelivery]:
    seen = set()
    out = []
    for step, index in enumerate(picks):
        data, kind, seq, block = POOL[index]
        if index in seen:
            kind = "replayed"
        seen.add(index)
        out.append(WireDelivery(0.001 * (step + 1), data, kind,
                                seq_hint=seq, block_hint=block))
    return out


def _split(deliveries, cuts) -> List[List[WireDelivery]]:
    """Runs as a transport yields them: a prefixed frame stands alone."""
    runs: List[List[WireDelivery]] = []
    run: List[WireDelivery] = []
    for delivery, cut in zip(deliveries, cuts):
        if delivery.data.startswith(CONTROL_PREFIX):
            if run:
                runs.append(run)
            runs.append([delivery])
            run = []
            continue
        if cut and run:
            runs.append(run)
            run = []
        run.append(delivery)
    if run:
        runs.append(run)
    return runs


# -- the per-frame oracle ------------------------------------------------

def _per_frame_decode(verifier, data, arrival_time):
    """The per-frame decode: memo, strict decoder, receive."""
    memo = verifier._wire_memo  # noqa: SLF001
    entry = memo.get(data) if memo is not None else None
    if entry is None:
        try:
            packet = packet_from_wire(data)
        except WireDecodeError:
            entry = (None, None)
        else:
            entry = (packet, verifier._hash.digest(  # noqa: SLF001
                packet.auth_bytes()))
        if memo is not None:
            memo[data] = entry
    packet, digest = entry
    if packet is None:
        verifier.undecodable += 1
        verifier.last_ingest = "undecodable"
        verifier.last_ingest_packet = None
    else:
        verifier.receive(packet, arrival_time, digest)


def _per_frame_ingest_data(session, delivery):
    """The session's per-frame data ingest, tracing included."""
    _per_frame_decode(session.stream.verifier, delivery.data,
                      delivery.arrival_time)
    session.stream._release()  # noqa: SLF001
    tracer = get_lifecycle()
    if not tracer.enabled:
        return
    verifier = session.stream.verifier
    status = ReceiverSession._INGEST_STATUS.get(verifier.last_ingest)
    if status is None:
        return
    packet = verifier.last_ingest_packet
    if packet is not None:
        block_id, seq = packet.block_id, packet.seq
    else:
        block_id, seq = session.blocks_closed, NOISE_SEQ
    attrs = {}
    if delivery.kind in ATTACK_KINDS:
        attrs["kind"] = delivery.kind
    if verifier.last_ingest == "slot-reject":
        attrs["detail"] = "slot-full"
    tracer.record(session.receiver_id, block_id, seq, "ingest", status,
                  delivery.arrival_time, **attrs)


def _per_frame_run(session, runs):
    for run in runs:
        for delivery in run:
            assert decode_control(delivery.data) is None
            _per_frame_ingest_data(session, delivery)


# -- the harness ---------------------------------------------------------

class _Scripted:
    """A transport stand-in whose subscription yields fixed runs."""

    def __init__(self, runs) -> None:
        self._runs = runs

    async def subscribe(self, receiver_id):
        for run in self._runs:
            yield run


class _Recorder:
    enabled = True

    def __init__(self) -> None:
        self.events: List[tuple] = []

    def record(self, *args, **attrs) -> None:
        self.events.append((args, sorted(attrs.items())))


def _session(memo, max_buffered: Optional[int]):
    """A receiver session, and the payloads its stream releases."""
    session = ReceiverSession("r0", _SIGNER, wire_memo=memo)
    released: list = []
    session.stream = StreamReceiver(_SIGNER, max_buffered=max_buffered,
                                    wire_memo=memo,
                                    on_deliver=released.append)
    return session, released


def _observe(session, released, recorder):
    verifier = session.stream.verifier
    return {
        "outcomes": [(seq, o.verified, o.forged, o.arrival_time,
                      o.verified_time)
                     for seq, o in verifier.outcomes.items()],
        "accepted": list(verifier.accepted_digests().items()),
        "counters": (verifier.undecodable, verifier.forged_rejected,
                     verifier.replays_dropped, verifier.evicted,
                     verifier.cap_evictions, verifier.buffered_count,
                     verifier.pending_hash_count),
        "peaks": (verifier.message_buffer_peak, verifier.hash_buffer_peak),
        "last": (verifier.last_ingest, verifier.last_ingest_packet),
        "delivered": (session.stream.delivered, released),
        "lifecycle": None if recorder is None else recorder.events,
    }


def _play(runs, shared_memo, max_buffered, traced, run_wise):
    """Two receivers sharing one memo (or none); what each observed."""
    memo = {} if shared_memo else None
    recorder = _Recorder() if traced else None
    sessions = [_session(memo, max_buffered) for _ in range(2)]
    previous = set_lifecycle(recorder) if traced else None
    try:
        for index, (session, _) in enumerate(sessions):
            script = runs if index == 0 else runs[::-1]
            if run_wise:
                asyncio.run(session.run(_Scripted(script), _no_report))
            else:
                _per_frame_run(session, script)
    finally:
        if traced:
            set_lifecycle(previous)
    return [_observe(session, released, recorder)
            for session, released in sessions]


async def _no_report(report):
    raise AssertionError("no control frame was sent")


_picks = st.lists(st.integers(0, len(POOL) - 1), max_size=48)


@settings(max_examples=200, deadline=None)
@given(picks=_picks, data=st.data(), shared_memo=st.booleans(),
       max_buffered=st.sampled_from([None, 3, 16]), traced=st.booleans())
def test_run_wise_ingest_matches_per_frame(picks, data, shared_memo,
                                           max_buffered, traced):
    deliveries = _deliveries(picks)
    cuts = data.draw(st.lists(st.booleans(), min_size=len(deliveries),
                              max_size=len(deliveries)))
    runs = _split(deliveries, cuts)
    expected = _play(runs, shared_memo, max_buffered, traced,
                     run_wise=False)
    got = _play(runs, shared_memo, max_buffered, traced, run_wise=True)
    assert got == expected


def test_the_pool_reaches_every_verdict():
    # One pass over every frame, signature packets last, must hit each
    # ingest taxonomy the differential compares, or it is vacuous.
    order = sorted(range(len(POOL)), key=lambda i: POOL[i][0][:4])
    picks = order + order[:4]
    observed = _play([_deliveries(picks)], True, None, True,
                     run_wise=True)[0]
    statuses = {event[0][4] for event in observed["lifecycle"]}
    assert statuses == {"decode", "buffer", "reject", "replay",
                        "undecodable"}
    assert any(("detail", "slot-full") in event[1]
               for event in observed["lifecycle"])
    assert observed["delivered"]
