"""The sender-filled decode memo: every entry checked, every session unchanged.

A live sender puts each frame it encodes into the receiver pool's
decode memo, ``wire -> (packet, digest)``, so receivers never decode or
hash a genuine frame.  That is sound only if each entry is exactly what
the strict decoder and the receiver's own hash would make of the key.
Here the pool's memo is a checking ``dict`` that asserts so on every
insert, by the sender or by the decoder: the value equals
``packet_from_wire(key)`` field for field, the ``auth_bytes()`` are
equal, and the digest is their ``sha256``.  Each config is also run
against an oracle in which the sender gets a throwaway memo, so every
buffer is decoded by a receiver: transcripts, lifecycle bytes and
merged stats must be identical (over UDP, whose arrival times come
from the wall clock, identical once every timestamp is dropped).
"""

import dataclasses
import json

import pytest

import repro.simulation.receiver as receiver_module
from repro.crypto.hashing import sha256
from repro.exceptions import WireDecodeError
from repro.obs.lifecycle import LifecycleTracer
from repro.packets import packet_from_wire
from repro.serve import service as service_module
from repro.serve.receiver import ReceiverPool
from repro.serve.sender import SenderService
from repro.serve.service import ServeConfig, run_live_session

BASE = dict(receivers=4, blocks=8, block_size=12, seed=29,
            loss_schedule=((0, 0.1), (5, 0.3)))

CONFIGS = {
    "no-attack-128": dict(block_size=128, blocks=4, receivers=2,
                          attack=None),
    "pollution": dict(attack="pollution"),
    "storm-churn-batch4": dict(attack="storm", churn="storm:0,0,2",
                               batch_size=4),
    "dualspine-batch8-pollution": dict(topology="dualspine:4", trees=2,
                                       batch_size=8, flush_deadline=0.5,
                                       attack="pollution"),
    "udp-dos": dict(transport="udp", attack="dos"),
}


def _assert_entry_is_pure(key: bytes, value) -> None:
    packet, digest = value
    try:
        decoded = packet_from_wire(key)
    except WireDecodeError:
        assert packet is None and digest is None
        return
    assert packet is not None
    for field in dataclasses.fields(decoded):
        assert getattr(packet, field.name) == getattr(decoded, field.name), (
            field.name)
    assert packet.auth_bytes() == decoded.auth_bytes()
    assert digest == sha256.digest(decoded.auth_bytes())


class CheckingMemo(dict):
    """A decode memo that checks every entry against the decoder."""

    def __init__(self) -> None:
        super().__init__()
        self.inserts = 0

    def __setitem__(self, key, value) -> None:
        _assert_entry_is_pure(key, value)
        self.inserts += 1
        super().__setitem__(key, value)


def _run(config: ServeConfig, sender_fills: bool):
    monkeypatch = pytest.MonkeyPatch()
    memos = []
    decodes = [0]
    decode = receiver_module.packet_from_wire

    class CheckedPool(ReceiverPool):
        def _build_session(self, receiver_id):
            if not isinstance(self.wire_memo, CheckingMemo):
                self.wire_memo = CheckingMemo()
                memos.append(self.wire_memo)
            return super()._build_session(receiver_id)

    def counted_decode(data):
        decodes[0] += 1
        return decode(data)

    sender_init = SenderService.__init__

    def throwaway_memo_init(sender, *args, **kwargs):
        kwargs["wire_memo"] = {}
        sender_init(sender, *args, **kwargs)

    monkeypatch.setattr(service_module, "ReceiverPool", CheckedPool)
    monkeypatch.setattr(receiver_module, "packet_from_wire", counted_decode)
    if not sender_fills:
        monkeypatch.setattr(SenderService, "__init__", throwaway_memo_init)
    tracer = LifecycleTracer(config.seed)
    try:
        result = run_live_session(config, lifecycle=tracer)
    finally:
        monkeypatch.undo()
    (memo,) = memos
    return result, list(tracer.events()), memo.inserts, decodes[0]


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def runs(request):
    config = ServeConfig(**{**BASE, **CONFIGS[request.param]})
    return config, _run(config, True), _run(config, False)


def test_every_insert_was_checked(runs):
    config, (_, _, inserts, decodes), (_, _, oracle_inserts,
                                       oracle_decodes) = runs
    # The oracle's inserts are all the decoder's; with the sender
    # filling the memo, receivers decode only what it did not frame.
    assert oracle_inserts == oracle_decodes > 0
    assert inserts > decodes
    assert decodes < oracle_decodes
    if config.attack is None:
        assert decodes == 0


def _timeless(result, events):
    """A session's artifacts with every wall-clock timestamp dropped."""
    transcripts = {}
    for receiver_id, transcript in result.transcripts.items():
        lines = [json.loads(line) for line in transcript.splitlines()]
        for line in lines:
            line["events"] = [event[:2] for event in line["events"]]
        transcripts[receiver_id] = lines
    events = sorted(json.dumps({key: value for key, value in event.items()
                                if key not in ("t", "delay")},
                               sort_keys=True)
                    for event in events)
    stats = {phase: (dataclasses.replace(tally, delays=[]),
                     len(tally.delays))
             for phase, tally in result.stats.items()}
    return transcripts, events, stats


def test_session_matches_the_decode_everything_oracle(runs):
    config, (result, events, _, _), (oracle, oracle_events, _, _) = runs
    assert result.forged_accepted == oracle.forged_accepted == 0
    assert result.delivered == oracle.delivered
    if config.transport == "udp":
        assert _timeless(result, events) == _timeless(oracle, oracle_events)
        return
    assert result.transcripts == oracle.transcripts
    assert events == oracle_events
    assert result.stats == oracle.stats
