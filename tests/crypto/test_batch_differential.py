"""Differential tests: batch signing vs the code it replaces.

Three claims, all byte-level:

* a batch-signed live session is *indistinguishable on the receive
  side* from a per-block-signed session on the same seed — identical
  per-receiver transcripts (accepted digests, verdicts, event times),
  identical delivery counts, zero forged acceptances in both; and
* the batch attachment encoding is canonical and brittle in exactly
  the right way — every single-bit mutation of an attachment (proof
  path, side flags, leaf index, root signature, length fields) either
  fails the strict decode or fails verification.  No mutation may
  verify; and
* the verifier's plain-signature verdict map is invisible except in
  work done — every call returns what the bare signer would, one
  inner verification per distinct ``(message, signature)`` pair.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.batch import (
    BatchSigner,
    BatchVerifier,
    batch_attachment_size,
    decode_batch_attachment,
    encode_batch_attachment,
)
from repro.crypto.hashing import sha256
from repro.crypto.signatures import HmacStubSigner
from repro.exceptions import CryptoError
from repro.serve.service import ServeConfig, run_live_session

BASE = dict(receivers=4, blocks=8, block_size=6, payload_size=16,
            loss_schedule=((0, 0.1),), seed=23, adaptive=False)


def _run(**overrides):
    config = ServeConfig(**{**BASE, **overrides})
    return run_live_session(config)


class TestSessionEquivalence:
    def test_batch_matches_per_block_byte_for_byte(self):
        per_block = _run()
        batched = _run(batch_size=4)
        assert batched.transcripts == per_block.transcripts
        assert batched.delivered == per_block.delivered
        assert per_block.forged_accepted == 0
        assert batched.forged_accepted == 0

    @pytest.mark.parametrize("attack", ["pollution", "dos"])
    def test_batch_matches_per_block_under_attack(self, attack):
        per_block = _run(attack=attack)
        batched = _run(attack=attack, batch_size=8)
        assert batched.transcripts == per_block.transcripts
        assert batched.delivered == per_block.delivered
        assert per_block.forged_accepted == 0
        assert batched.forged_accepted == 0

    def test_flush_deadline_does_not_change_verdicts(self):
        per_block = _run()
        deadline = _run(batch_size=3, flush_deadline=0.5)
        assert deadline.transcripts == per_block.transcripts

    def test_batch_runs_are_repeatable(self):
        first = _run(batch_size=4, attack="pollution")
        second = _run(batch_size=4, attack="pollution")
        assert first.transcripts == second.transcripts

    def test_partial_final_batch_flushes(self):
        # 8 blocks with batch 5: the last flush covers only 3 blocks,
        # driven by send_final's auto-flush.
        batched = _run(batch_size=5)
        per_block = _run()
        assert batched.transcripts == per_block.transcripts


class TestMutationRejection:
    """Any single-bit mutation of an attachment must be rejected."""

    def _attachment(self, leaf_count=5, index=2):
        signer = HmacStubSigner(key=b"mutation-suite", signature_size=64)
        batch = BatchSigner(signer, sha256)
        messages = [b"block-%d" % i for i in range(leaf_count)]
        for message in messages:
            batch.append(message)
        attachments = batch.flush()
        return signer, messages[index], attachments[index]

    def test_pristine_attachment_verifies(self):
        signer, message, blob = self._attachment()
        verifier = BatchVerifier(signer, sha256)
        assert verifier.verify(message, blob)

    def test_every_single_bit_mutation_is_rejected(self):
        signer, message, blob = self._attachment()
        verifier = BatchVerifier(signer, sha256)
        assert verifier.verify(message, blob)
        accepted = []
        for bit in range(len(blob) * 8):
            mutated = bytearray(blob)
            mutated[bit // 8] ^= 1 << (bit % 8)
            if verifier.verify(message, bytes(mutated)):
                accepted.append(bit)
        assert accepted == []

    def test_wrong_message_is_rejected(self):
        signer, _message, blob = self._attachment()
        verifier = BatchVerifier(signer, sha256)
        assert not verifier.verify(b"some other block", blob)

    def test_decode_roundtrip_is_canonical(self):
        _signer, _message, blob = self._attachment()
        attachment = decode_batch_attachment(blob)
        assert encode_batch_attachment(attachment) == blob

    def test_structurally_inconsistent_proof_cannot_encode(self):
        _signer, _message, blob = self._attachment(leaf_count=5, index=2)
        attachment = decode_batch_attachment(blob)
        from dataclasses import replace
        with pytest.raises(CryptoError):
            encode_batch_attachment(replace(attachment, leaf_index=3))

    def test_nominal_size_matches_encoding(self):
        signer, _message, blob = self._attachment(leaf_count=8, index=3)
        assert len(blob) == batch_attachment_size(
            8, sha256.digest_size, signer.signature_size)


class TestVerifierCache:
    def test_one_root_verification_per_batch(self):
        signer = HmacStubSigner(key=b"cache-suite", signature_size=64)
        batch = BatchSigner(signer, sha256)
        messages = [b"cached-%d" % i for i in range(8)]
        for message in messages:
            batch.append(message)
        attachments = batch.flush()
        verifier = BatchVerifier(signer, sha256)
        for message, blob in zip(messages, attachments):
            assert verifier.verify(message, blob)
        assert verifier.root_verifies == 1
        assert verifier.cache_hits == len(messages) - 1

    def test_tampered_signature_does_not_poison_cache(self):
        signer = HmacStubSigner(key=b"poison-suite", signature_size=64)
        batch = BatchSigner(signer, sha256)
        batch.append(b"victim")
        blob = batch.flush()[0]
        tampered = bytearray(blob)
        tampered[-1] ^= 0xFF  # flip in the root signature
        verifier = BatchVerifier(signer, sha256)
        assert not verifier.verify(b"victim", bytes(tampered))
        assert verifier.verify(b"victim", blob)

    def test_passthrough_plain_signatures(self):
        signer = HmacStubSigner(key=b"plain-suite", signature_size=64)
        verifier = BatchVerifier(signer, sha256)
        signature = signer.sign(b"plain block")
        assert verifier.verify(b"plain block", signature)
        assert not verifier.verify(b"other block", signature)
        assert verifier.passthrough_verifies == 2

    def test_sign_is_refused(self):
        verifier = BatchVerifier(
            HmacStubSigner(key=b"x", signature_size=64), sha256)
        with pytest.raises(CryptoError):
            verifier.sign(b"nope")


class _CountingSigner:
    """``HmacStubSigner`` that counts the verifications it performs."""

    def __init__(self, key=b"verdict-suite"):
        self.inner = HmacStubSigner(key=key, signature_size=64)
        self.name = self.inner.name
        self.signature_size = self.inner.signature_size
        self.verifies = 0

    def sign(self, message):
        return self.inner.sign(message)

    def verify(self, message, signature):
        self.verifies += 1
        return self.inner.verify(message, signature)


class TestPlainVerdictCache:
    def test_same_pair_twice_costs_one_verification(self):
        signer = _CountingSigner()
        verifier = BatchVerifier(signer, sha256)
        signature = signer.sign(b"P_sign")
        assert verifier.verify(b"P_sign", signature)
        assert verifier.verify(b"P_sign", signature)
        assert signer.verifies == 1
        assert verifier.passthrough_verifies == 2
        assert verifier.passthrough_cache_hits == 1
        assert verifier.root_verifies == 0
        assert verifier.cache_hits == 0

    def test_cached_genuine_pair_does_not_vouch_for_another_message(self):
        signer = _CountingSigner()
        verifier = BatchVerifier(signer, sha256)
        signature = signer.sign(b"genuine block")
        assert verifier.verify(b"genuine block", signature)
        assert not verifier.verify(b"forged block", signature)
        assert not verifier.verify(b"forged block", signature)
        assert signer.verifies == 2

    @pytest.mark.parametrize("genuine_first", [True, False])
    def test_tampered_signatures_stay_rejected_in_either_order(
            self, genuine_first):
        signer = _CountingSigner()
        verifier = BatchVerifier(signer, sha256)
        message = b"victim block"
        signature = signer.sign(message)
        flipped = bytearray(signature)
        flipped[3] ^= 0x10
        bad = [bytes(flipped), signature[:-1], signature + b"\x00"]
        calls = [(signature, True)] + [(sig, False) for sig in bad]
        if not genuine_first:
            calls.reverse()
        for _ in range(2):
            for sig, expected in calls:
                assert verifier.verify(message, sig) is expected
        assert signer.verifies == len(calls)

    def test_map_stays_bounded_and_correct_past_its_capacity(self):
        signer = _CountingSigner()
        verifier = BatchVerifier(signer, sha256, max_cached_roots=4)
        pairs = [(b"m%d" % i, signer.sign(b"m%d" % i)) for i in range(10)]
        for round_ in range(3):
            for index, (message, signature) in enumerate(pairs):
                assert verifier.verify(message, signature)
                other = pairs[(index + 1) % len(pairs)][1]
                assert not verifier.verify(message, other)
                assert len(verifier._plain) <= 4
        # 20 distinct pairs cycling through 4 slots: nothing survives a
        # whole round, so every call is a real verification.
        assert signer.verifies == 3 * 20
        assert verifier.passthrough_cache_hits == 0

    def test_plain_traffic_never_evicts_a_root_verdict(self):
        signer = _CountingSigner()
        batch = BatchSigner(signer, sha256)
        messages = [b"batched-%d" % i for i in range(4)]
        for message in messages:
            batch.append(message)
        attachments = batch.flush()
        verifier = BatchVerifier(signer, sha256, max_cached_roots=8)
        for i in range(2000):
            message = b"plain-%d" % i
            forged = b"\x00" * 64 if i % 2 else signer.sign(message)
            assert verifier.verify(message, forged) is (i % 2 == 0)
            if i % 500 == 0:
                blob = attachments[(i // 500) % len(attachments)]
                assert verifier.verify(
                    messages[(i // 500) % len(attachments)], blob)
        assert verifier.root_verifies == 1
        assert verifier.cache_hits == 3
        assert len(verifier._plain) <= 8
        assert len(verifier._cache) == 1


_KINDS = st.sampled_from(["genuine", "flipped", "short", "foreign",
                          "swapped"])


class TestPlainVerdictCacheProperty:
    @given(st.lists(st.tuples(st.integers(0, 5), _KINDS), min_size=1,
                    max_size=60),
           st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_cached_verifier_agrees_with_the_bare_signer(self, calls,
                                                          capacity):
        signer = HmacStubSigner(key=b"verdict-prop", signature_size=64)
        foreign = HmacStubSigner(key=b"someone-else", signature_size=64)
        verifier = BatchVerifier(signer, sha256,
                                 max_cached_roots=capacity)
        for index, kind in calls:
            message = b"block-%d" % index
            signature = signer.sign(message)
            if kind == "flipped":
                signature = bytes([signature[0] ^ 1]) + signature[1:]
            elif kind == "short":
                signature = signature[:-1]
            elif kind == "foreign":
                signature = foreign.sign(message)
            elif kind == "swapped":
                signature = signer.sign(b"block-%d" % ((index + 1) % 6))
            assert (verifier.verify(message, signature)
                    is signer.verify(message, signature))
            assert len(verifier._plain) <= capacity
