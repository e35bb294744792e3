"""One settle path for the trial kernel and the live receiver.

:func:`~repro.simulation.trials.settle` is the only code that tallies a
position (received when intact or verified) and audits accepted digests
into ``forged_accepted``.  The kernel calls it once per fresh verifier;
:meth:`~repro.serve.receiver.ReceiverSession.close_block` calls it once
per block on a long-lived one.  These tests pin the verdict records it
reads, the audit's scope, and that both callers agree on one polluted
block.
"""

import pytest

from repro.analysis.conformance import attack_mix
from repro.crypto.hashing import sha256
from repro.crypto.signatures import HmacStubSigner
from repro.schemes import make_scheme
from repro.serve.receiver import BlockTruth, ReceiverSession
from repro.serve.transport import ControlFrame
from repro.simulation.adversarial import AttackSchedule
from repro.simulation.receiver import ChainReceiver
from repro.simulation.sender import StreamSender, make_payloads
from repro.simulation.stats import SimulationStats
from repro.simulation.trials import SeededChannels, run_trials, settle

SIGNER = HmacStubSigner(key=b"settle")


def _authentic(packets):
    return {packet.seq: sha256.digest(packet.auth_bytes())
            for packet in packets}


def _blocks(count, size=6):
    sender = StreamSender(make_scheme("emss(2,1)"), SIGNER, size)
    return [sender.send_block(make_payloads(size)) for _ in range(count)]


def _split(block):
    """The block's signature packet and the rest, in send order."""
    (signed,) = [packet for packet in block if packet.signature is not None]
    return signed, [packet for packet in block if packet is not signed]


class TestVerdictRecords:
    @pytest.mark.parametrize("name", ["sign-each", "wong-lam"])
    def test_individual_verifiers_verify_on_arrival(self, name):
        trial = make_scheme(name).new_trial(SIGNER, 4, 1, seed=1)
        verifier = trial.new_verifier()
        for packet in trial.packets[1:]:
            verifier.receive(packet, 2.5)
        verifier.finish()
        assert verifier.verdict(trial.packets[0].seq) is None
        record = verifier.verdict(trial.packets[1].seq)
        assert record.verified and record.arrival_time == 2.5
        assert record.delay == 0.0

    @pytest.mark.parametrize("name", ["saida(0.5)"])
    def test_untimed_verifiers_report_no_delay(self, name):
        trial = make_scheme(name).new_trial(SIGNER, 6, 1, seed=1)
        verifier = trial.new_verifier()
        for packet in trial.packets:
            verifier.receive(packet, 1.0)
        verifier.finish()
        records = [verifier.verdict(seq) for seq in trial.positions]
        assert all(record.verified for record in records)
        assert all(record.delay is None for record in records)

    def test_online_chain_verifies_on_arrival(self):
        # Each link is checked as it arrives, against the key its
        # predecessor vouched for: every delay is defined and zero.
        trial = make_scheme("rohatgi-online").new_trial(SIGNER, 6, 1, seed=1)
        verifier = trial.new_verifier()
        for packet in trial.packets:
            verifier.receive(packet, 1.0)
            assert verifier.verdict(packet.seq).verified
        verifier.finish()
        records = [verifier.verdict(seq) for seq in trial.positions]
        assert all(record.verified_time == 1.0 for record in records)
        assert all(record.delay == 0.0 for record in records)

    def test_chain_receiver_returns_its_live_outcome(self):
        (block,) = _blocks(1)
        signed, unsigned = _split(block)
        receiver = ChainReceiver(SIGNER)
        receiver.receive(unsigned[-1], 0.5)
        record = receiver.verdict(unsigned[-1].seq)
        assert record is receiver.outcomes[unsigned[-1].seq]
        assert not record.verified
        receiver.receive(signed, 0.75)
        assert record.verified and record.delay == 0.25
        assert receiver.verdict(unsigned[0].seq) is None


class TestSettle:
    def test_tally_counts_intact_or_verified(self):
        (block,) = _blocks(1)
        signed, unsigned = _split(block)
        receiver = ChainReceiver(SIGNER)
        for packet in unsigned:
            receiver.receive(packet, 0.0)
        stats = SimulationStats()
        positions = {packet.seq: index
                     for index, packet in enumerate(block, start=1)}
        records = settle(receiver, positions,
                         {packet.seq for packet in unsigned},
                         _authentic(block), stats)
        # The signature packet never arrived: nothing verifies.
        assert records[positions[signed.seq] - 1] is None
        assert sum(t.received for t in stats.tallies.values()) == \
            len(unsigned)
        assert stats.tallies[positions[signed.seq]].received == 0
        assert sum(t.verified for t in stats.tallies.values()) == 0
        assert stats.forged_accepted == 0

    def test_audit_covers_sequence_numbers_outside_positions(self):
        (block,) = _blocks(1)
        receiver = ChainReceiver(SIGNER)
        for packet in block:
            receiver.receive(packet, 0.0)
        authentic = _authentic(block)
        del authentic[block[-1].seq]
        stats = SimulationStats()
        settle(receiver, {block[0].seq: 1}, set(), authentic, stats)
        # Only position 1 is tallied; the audit still saw every seq.
        assert list(stats.tallies) == [1]
        assert stats.forged_accepted == 1

    def test_each_acceptance_is_audited_once(self):
        blocks = _blocks(3)
        receiver = ChainReceiver(SIGNER)
        stats = SimulationStats()
        for block in blocks:
            for packet in block:
                receiver.receive(packet, 0.0)
            # Every block is audited against its own digests only: an
            # acceptance from an earlier block would count as forged.
            settle(receiver, {packet.seq: index for index, packet
                              in enumerate(block, start=1)},
                   set(), _authentic(block), stats)
        assert stats.forged_accepted == 0
        assert list(receiver.fresh_accepted()) == []


def test_kernel_and_live_receiver_agree_on_a_polluted_block():
    scheme = make_scheme("emss(2,1)")
    channels = SeededChannels.for_scheme(scheme, 0.1, seed=17)
    trial = 4
    kernel = run_trials(scheme, 16, trial, 1, channels, signer=SIGNER,
                        attack=AttackSchedule(attack_mix("pollution"),
                                              17))[0]

    sent = scheme.new_trial(SIGNER, 16, 1, seed=channels.seed)
    channel = AttackSchedule(attack_mix("pollution"), 17)(
        channels(trial), trial)
    deliveries = channel.transmit_wire(sent.packets)
    assert channel.corrupted + channel.injected + channel.replayed > 0
    session = ReceiverSession("r00", SIGNER)
    session.ledger[("r00", 0)] = BlockTruth(
        scheme=scheme.name, phase="polluted",
        intact=frozenset(d.seq_hint for d in deliveries
                         if d.kind == "genuine"),
        digests=_authentic(sent.packets))
    session.stream.ingest_run(deliveries)
    session.close_block(ControlFrame(0, min(sent.positions),
                                     max(sent.positions)), now=10.0)
    live = session.stats["polluted"]

    assert live.tallies == kernel.tallies
    assert live.delays == kernel.delays
    assert live.forged_accepted == kernel.forged_accepted == 0
    assert sum(t.verified for t in kernel.tallies.values()) > 0


def _per_position_settle(verifier, positions, intact, authentic, stats):
    """The per-position settle: one ``SimulationStats.record`` per seq."""
    records = []
    for seq, position in positions.items():
        record = verifier.verdict(seq)
        verified = record is not None and record.verified
        stats.record(position, verified or seq in intact, verified,
                     record.delay if verified else None)
        records.append(record)
    if authentic is not None:
        for seq, digest in verifier.fresh_accepted():
            if authentic.get(seq) != digest:
                stats.forged_accepted += 1
    return records


def _fields(record):
    if record is None:
        return None
    return (record.seq, record.verified, record.forged,
            record.arrival_time, record.verified_time)


@pytest.mark.parametrize("name", ["emss(2,1)", "ac(2,1)", "saida(0.5)",
                                  "rohatgi-online", "sign-each"])
def test_block_tally_matches_the_per_position_oracle(name):
    scheme = make_scheme(name)
    channels = SeededChannels.for_scheme(scheme, 0.2, seed=29)
    audited = 0
    for trial in range(4):
        sent = scheme.new_trial(SIGNER, 8, 2, seed=channels.seed)
        channel = AttackSchedule(attack_mix("pollution"), 29)(
            channels(trial), trial)
        deliveries = channel.transmit_wire(sent.packets)
        intact = {d.seq_hint for d in deliveries if d.kind == "genuine"}
        verifiers = [sent.new_verifier(), sent.new_verifier()]
        authentic = {packet.seq: verifiers[0].content_digest(packet)
                     for packet in sent.packets}
        # Misstate every third digest, so the audit has work to do.
        for seq in list(authentic)[::3]:
            authentic[seq] = b"misstated"
        results = []
        for verifier, settle_with in zip(verifiers,
                                         (settle, _per_position_settle)):
            verifier.ingest_run(deliveries)
            verifier.finish()
            stats = SimulationStats()
            records = [settle_with(verifier, sent.positions, intact,
                                   authentic, stats) for _ in range(2)]
            results.append(([[_fields(r) for r in block]
                             for block in records], stats))
        (got_records, got), (expected_records, expected) = results
        assert got_records == expected_records
        assert got.tallies == expected.tallies
        assert got.delays == expected.delays
        assert got.forged_accepted == expected.forged_accepted
        audited += got.forged_accepted
    assert audited > 0
