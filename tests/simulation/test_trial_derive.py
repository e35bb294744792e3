"""A run derives its trial once: what the trial kernel reuses, and when.

The trials of a single-block run send the very packets of the scheme's
kept block (:class:`~repro.schemes.base.LastBlock`), born stamped with
their send times.  :func:`~repro.simulation.trials.run_trials` then
reuses each packet's digest, the audit map, the frames and a decode
memo seeded with them.  These tests count what is hashed and decoded,
check that the reuse stops where the packets change, and that none of
it leaks into a pickled scheme or a worker count.
"""

import pickle
from collections import Counter

import pytest

from repro.analysis.conformance import attack_mix
from repro.crypto.hashing import sha256
from repro.crypto.signatures import HmacStubSigner
from repro.exceptions import SimulationError
from repro.faults.channel import AdversarialChannel
from repro.parallel import parallel_trials
from repro.schemes.registry import make_scheme
from repro.simulation import SeededChannels, WireTrialConfig, run_trials
from repro.simulation import wire_monte_carlo
from repro.simulation.adversarial import AttackSchedule
from repro.simulation.receiver import ChainReceiver
from repro.simulation.sender import StreamSender, make_payloads

SIGNER = HmacStubSigner(key=b"trial-derive")
BLOCK = 16
TRIALS = 8


class CountingHash:
    """SHA-256, counting each input it digests."""

    name = "counting-sha256"
    digest_size = sha256.digest_size

    def __init__(self) -> None:
        self.inputs = Counter()

    def digest(self, data: bytes) -> bytes:
        self.inputs[data] += 1
        return sha256.digest(data)


@pytest.fixture
def deliveries(monkeypatch):
    """Every attacked delivery list, and each call's ``frames``."""
    seen = []
    transmit = AdversarialChannel.transmit_wire

    def spy(channel, packets, frames=None):
        delivered = transmit(channel, packets, frames)
        seen.append((list(packets), frames, delivered))
        return delivered

    monkeypatch.setattr(AdversarialChannel, "transmit_wire", spy)
    return seen


def _attacked(spec, trials=TRIALS, seed=3):
    scheme = make_scheme(spec)
    return run_trials(scheme, BLOCK, 0, trials,
                      SeededChannels.for_scheme(scheme, 0.1, seed),
                      attack=AttackSchedule(attack_mix("pollution"), seed),
                      signer=SIGNER)[0]


def test_loss_only_run_hashes_each_sent_packet_once():
    counting = CountingHash()
    scheme = make_scheme("emss(2,1)")
    stats = run_trials(scheme, BLOCK, 0, TRIALS, SeededChannels(0.2, 5),
                       signer=SIGNER, hash_function=counting)[0]
    block = scheme.make_block(make_payloads(BLOCK), SIGNER, counting)
    assert set(counting.inputs) == {packet.auth_bytes() for packet in block}
    assert set(counting.inputs.values()) == {1}
    assert sum(t.verified for t in stats.tallies.values()) > 0
    assert stats.forged == 0


def test_attacked_run_decodes_only_what_the_attacker_touched(
        monkeypatch, deliveries):
    decoded = []
    import repro.simulation.receiver as receiver_module
    decode = receiver_module.packet_from_wire

    def counting_decode(data):
        decoded.append(data)
        return decode(data)

    monkeypatch.setattr(receiver_module, "packet_from_wire", counting_decode)
    stats = _attacked("emss(2,1)")
    assert stats.forged_accepted == 0
    genuine = {delivery.data for _, _, delivered in deliveries
               for delivery in delivered if delivery.kind == "genuine"}
    touched = [delivery for _, _, delivered in deliveries
               for delivery in delivered if delivery.kind != "genuine"]
    assert genuine and decoded
    assert not genuine & set(decoded)
    assert len(decoded) <= len(touched)


def test_a_kept_block_is_derived_once_per_run(deliveries):
    _attacked("emss(2,1)")
    frames = {id(frames) for _, frames, _ in deliveries}
    assert len(deliveries) == TRIALS and len(frames) == 1


def test_unseeded_random_graph_derives_every_trial(deliveries):
    stats = _attacked("random(0.35)")
    assert stats.forged_accepted == 0
    assert len({id(frames) for _, frames, _ in deliveries}) == TRIALS
    for packets, frames, _ in deliveries:
        # Each trial sends its own packets' bytes, not a stale frame.
        assert {seq: wire for seq, wire in frames.items()} == {
            packet.seq: packet.to_wire() for packet in packets}


def test_unseeded_random_graph_hands_receive_its_own_digests(monkeypatch):
    checked = []
    receive = ChainReceiver.receive

    def spy(verifier, packet, arrival_time, digest=None):
        if digest is not None:
            assert digest == sha256.digest(packet.auth_bytes())
            checked.append(packet)
        return receive(verifier, packet, arrival_time, digest)

    monkeypatch.setattr(ChainReceiver, "receive", spy)
    scheme = make_scheme("random(0.35)")
    stats = run_trials(scheme, BLOCK, 0, TRIALS, SeededChannels(0.2, 5),
                       signer=SIGNER)[0]
    assert len({id(packet) for packet in checked}) > BLOCK
    assert stats.forged == 0


@pytest.mark.parametrize("spec", ["emss(2,1)", "sign-each", "wong-lam"])
def test_a_pickled_scheme_carries_no_run_state(spec):
    scheme = make_scheme(spec)
    wire_monte_carlo(scheme, WireTrialConfig(block_size=BLOCK, trials=3))
    data = pickle.dumps(scheme)
    assert b"LastBlock" not in data
    assert b"Packet" not in data
    clone = pickle.loads(data)
    assert clone._last is None
    assert all(plan._last is None
               for plan in vars(clone).get("_block_plans", {}).values())


@pytest.mark.parametrize("attacked", [False, True], ids=["loss", "attacked"])
@pytest.mark.parametrize("spec", ["emss(2,1)", "sign-each"])
def test_parallel_trials_are_byte_identical_at_any_worker_count(spec,
                                                                attacked):
    scheme = make_scheme(spec)
    options = {"receivers": 2, "signer": SIGNER}
    if attacked:
        options["attack"] = AttackSchedule(attack_mix("pollution"), 11)
    runs = [pickle.dumps(parallel_trials(
        scheme, 8, 9, SeededChannels.for_scheme(scheme, 0.2, 11),
        workers=workers, chunks=3, **options))
        for workers in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("spec", ["saida(0.5)", "tesla(d=5,T=0.1,n=64)"])
def test_max_buffered_refuses_a_verifier_without_a_cap(spec):
    scheme = make_scheme(spec)
    calls = []
    channels = SeededChannels.for_scheme(scheme, 0.1, 3)

    class Recording:
        seed = channels.seed

        def __call__(self, trial, receiver=0):
            calls.append(trial)
            return channels(trial, receiver)

    with pytest.raises(SimulationError) as raised:
        run_trials(scheme, 8, 0, 2, Recording(), max_buffered=4)
    assert str(raised.value).startswith(
        f"{scheme.name} has no message-buffer cap")
    assert calls == []


def test_blocks_are_born_stamped_on_the_sender_clock():
    scheme = make_scheme("emss(2,1)")
    sender = StreamSender(scheme, SIGNER, BLOCK, t_transmit=0.01)
    sent = [packet for _ in range(3)
            for packet in sender.send_block(make_payloads(BLOCK))]
    clock = 0.0
    for packet in sent:
        assert packet.send_time.hex() == clock.hex()
        clock += 0.01
    # The send times stamped onto a copy of each packet, as a sender
    # used to, give the same bytes.
    unstamped = scheme.make_block(make_payloads(BLOCK), SIGNER,
                                  block_id=2, base_seq=2 * BLOCK + 1)
    assert {packet.send_time for packet in unstamped} == {0.0}
    assert [packet.with_send_time(stamped.send_time).to_wire()
            for packet, stamped in zip(unstamped, sent[2 * BLOCK:])] == [
        packet.to_wire() for packet in sent[2 * BLOCK:]]


def test_the_same_block_at_the_same_times_is_the_same_packets():
    scheme = make_scheme("emss(2,1)")
    first, again = (
        StreamSender(scheme, SIGNER, BLOCK).send_block(make_payloads(BLOCK))
        for _ in range(2))
    assert first is not again
    assert all(a is b for a, b in zip(first, again))
    assert first.digests == again.digests == tuple(
        sha256.digest(packet.auth_bytes()) for packet in first)
