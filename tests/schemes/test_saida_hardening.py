"""SAIDA receiver hardening: pollution, duplicates, shape forgery.

The erasure-coded receiver faces an attacker who can inject shares
with arbitrary indices and shapes; these tests pin the defensive
contract — first share per (block, index) wins for decoding, shapes
are validated against the block's first share, a verified slot is
final, and polluted shares cannot poison a block while ``k`` clean
ones arrived, all under a bounded attempt budget.
"""

from dataclasses import replace

import pytest

from repro.crypto.signatures import HmacStubSigner
from repro.schemes.saida import _EXTRA, SaidaReceiver, SaidaScheme
from repro.simulation.sender import make_payloads


@pytest.fixture
def signer():
    return HmacStubSigner(key=b"saida-hardening")


@pytest.fixture
def scheme():
    return SaidaScheme(k_fraction=0.5)


@pytest.fixture
def block(scheme, signer):
    return scheme.make_block(make_payloads(12), signer)  # k=6, n=12


def _garble_share(packet, stamp=b"\xee"):
    """Corrupt the share region, leaving index/shape/payload intact."""
    head = packet.extra[:_EXTRA.size]
    share = packet.extra[_EXTRA.size:]
    return replace(packet, extra=head + stamp * len(share))


class TestDefensiveBookkeeping:
    def test_duplicate_index_first_wins(self, signer, block):
        receiver = SaidaReceiver(signer)
        receiver.receive(block[0])
        fake = replace(block[1], extra=block[0].extra)  # same index 0
        receiver.receive(fake)
        assert receiver.duplicate_shares == 1

    def test_invalid_first_shape_rejected(self, signer, block):
        receiver = SaidaReceiver(signer)
        head = _EXTRA.pack(0, 9, 5, 128)  # k > n
        receiver.receive(replace(block[0], extra=head + b"\x00" * 20))
        assert receiver.rejected_shares == 1
        assert receiver.pending_count == 0

    def test_shape_disagreement_rejected(self, signer, block):
        receiver = SaidaReceiver(signer)
        receiver.receive(block[0])  # pins (k, n) = (6, 12)
        _, k, n, sig_len = _EXTRA.unpack_from(block[1].extra, 0)
        lied = _EXTRA.pack(1, k, n + 1, sig_len) + block[1].extra[_EXTRA.size:]
        receiver.receive(replace(block[1], extra=lied))
        assert receiver.rejected_shares == 1

    def test_out_of_range_index_rejected(self, signer, block):
        receiver = SaidaReceiver(signer)
        receiver.receive(block[0])
        _, k, n, sig_len = _EXTRA.unpack_from(block[1].extra, 0)
        head = _EXTRA.pack(n + 5, k, n, sig_len)
        receiver.receive(replace(block[1],
                                 extra=head + block[1].extra[_EXTRA.size:]))
        assert receiver.rejected_shares == 1

    def test_verdicts_are_final(self, signer, block):
        receiver = SaidaReceiver(signer)
        for packet in block:
            receiver.receive(packet)
        assert receiver.verified_count() == len(block)
        forged = replace(block[3], payload=b"late forgery")
        receiver.receive(forged)
        assert receiver.verified[block[3].seq] is True
        # Other content for a verified slot is a forgery, not a replay.
        assert receiver.forged_rejected == 1
        assert receiver.replays_dropped == 0
        receiver.receive(block[3])
        assert receiver.replays_dropped == 1


    def test_candidates_per_seq_are_capped(self, signer, block):
        from repro.schemes.base import DEFAULT_MAX_CANDIDATES

        receiver = SaidaReceiver(signer)
        receiver.receive(block[3])
        for index in range(DEFAULT_MAX_CANDIDATES):
            receiver.receive(replace(block[3], payload=b"forged %d" % index))
        # The genuine packet and three forgeries wait; the fourth is
        # turned away at once.
        assert receiver.pending_count == DEFAULT_MAX_CANDIDATES
        assert receiver.forged_rejected == 1
        for packet in block:
            receiver.receive(packet)
        assert receiver.verified[block[3].seq] is True
        assert receiver.verified_count() == len(block)
        assert receiver.forged_rejected == DEFAULT_MAX_CANDIDATES
        assert receiver.replays_dropped == 1


class TestPollutionRescue:
    def test_single_polluted_share_survived(self, signer, block):
        receiver = SaidaReceiver(signer)
        receiver.receive(_garble_share(block[0]))
        for packet in block[1:]:
            receiver.receive(packet)
        # Block reconstructs from clean shares; the polluted packet's
        # payload is intact, so it verifies too (salvage).
        assert receiver.verified_count() == len(block)

    def test_three_polluted_shares_survived(self, signer, block):
        receiver = SaidaReceiver(signer)
        for i, packet in enumerate(block):
            receiver.receive(_garble_share(packet) if i < 3 else packet)
        assert receiver.verified_count() == len(block)

    def test_polluted_payload_fails_its_own_verdict(self, signer, block):
        receiver = SaidaReceiver(signer)
        tampered = replace(block[2], payload=b"swapped payload!")
        for i, packet in enumerate(block):
            receiver.receive(tampered if i == 2 else packet)
        assert receiver.verified[block[2].seq] is False
        assert sum(receiver.verified.values()) == len(block) - 1

    def test_wrong_signer_block_never_verifies(self, block):
        receiver = SaidaReceiver(HmcStub := HmacStubSigner(key=b"other"))
        assert HmcStub.key != b"saida-hardening"
        for packet in block:
            receiver.receive(packet)
        assert receiver.verified_count() == 0
        assert all(v is False for v in receiver.verified.values())

    def test_attempt_budget_bounds_work(self, signer, scheme):
        """All shares polluted: the budget must cut the search off."""
        from repro.schemes.saida import _MAX_ATTEMPT_FACTOR

        block = scheme.make_block(make_payloads(12), signer)
        receiver = SaidaReceiver(signer)
        for packet in block:
            receiver.receive(_garble_share(packet))
        block_id = block[0].block_id
        assert receiver.verified_count() == 0
        assert receiver._attempts.get(block_id, 0) <= \
            _MAX_ATTEMPT_FACTOR * 12 or block_id not in receiver._attempts
