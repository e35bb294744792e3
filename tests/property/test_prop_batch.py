"""Property-based tests for the batch-signing construction.

Three claims from the issue, each over randomized inputs:

* every appended message's attachment verifies against exactly one
  signed root — its own batch's — and never against another batch's
  attachments or messages;
* proofs are minimal-length: exactly the sibling count the tree shape
  dictates, never more than ``ceil(log2(leaf_count))``;
* splitting a digest stream at any point into two batches never
  changes the set of verifiable blocks; and (session level) random
  batch sizes, flush deadlines and churn specs leave a live session's
  transcripts byte-identical to per-block signing, and churn storms
  under pollution never accept a forgery.
"""

import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.batch import (
    BatchSigner,
    BatchVerifier,
    decode_batch_attachment,
    expected_proof_sides,
)
from repro.crypto.hashing import sha256
from repro.crypto.signatures import HmacStubSigner
from repro.obs.lifecycle import LifecycleTracer
from repro.serve.service import ServeConfig, run_live_session

_messages = st.lists(st.binary(min_size=1, max_size=48), min_size=1,
                     max_size=20, unique=True)


def _signer():
    return HmacStubSigner(key=b"prop-batch", signature_size=64)


class TestOneSignedRoot:
    @given(_messages)
    @settings(max_examples=60)
    def test_every_block_verifies_against_exactly_one_root(self, messages):
        signer = _signer()
        batch = BatchSigner(signer, sha256)
        for message in messages:
            batch.append(message)
        attachments = batch.flush()
        assert batch.signs == 1
        verifier = BatchVerifier(signer, sha256)
        roots = set()
        for message, blob in zip(messages, attachments):
            assert verifier.verify(message, blob)
            attachment = decode_batch_attachment(blob)
            roots.add(attachment.root_signature)
        # one shared root signature across the whole batch, and the
        # expensive verification ran exactly once for it
        assert len(roots) == 1
        assert verifier.root_verifies == 1

    @given(_messages, _messages)
    @settings(max_examples=40)
    def test_attachments_never_cross_batches(self, first, second):
        signer = _signer()
        batch = BatchSigner(signer, sha256)
        for message in first:
            batch.append(message)
        first_attachments = batch.flush()
        for message in second:
            batch.append(message)
        second_attachments = batch.flush()
        verifier = BatchVerifier(signer, sha256)
        for message, blob in zip(first, first_attachments):
            assert verifier.verify(message, blob)
        for message, blob in zip(second, second_attachments):
            assert verifier.verify(message, blob)
        # a message from one batch can never ride another batch's proof
        for message in second:
            if message in first:
                continue
            for blob in first_attachments:
                assert not verifier.verify(message, blob)


class TestMinimalProofs:
    @given(_messages)
    @settings(max_examples=60)
    def test_proof_length_is_exactly_the_tree_shape(self, messages):
        signer = _signer()
        batch = BatchSigner(signer, sha256)
        for message in messages:
            batch.append(message)
        attachments = batch.flush()
        count = len(messages)
        height = math.ceil(math.log2(count)) if count > 1 else 0
        for index, blob in enumerate(attachments):
            attachment = decode_batch_attachment(blob)
            sides = expected_proof_sides(index, count)
            assert len(attachment.proof.siblings) == len(sides)
            assert len(attachment.proof.siblings) <= height


class TestSplitInvariance:
    @given(_messages, st.data())
    @settings(max_examples=60)
    def test_splitting_a_stream_never_changes_the_verifiable_set(
            self, messages, data):
        split = data.draw(st.integers(min_value=0,
                                      max_value=len(messages)))
        signer = _signer()

        def verifiable_set(chunks):
            batch = BatchSigner(signer, sha256)
            verifier = BatchVerifier(signer, sha256)
            verified = set()
            for chunk in chunks:
                for message in chunk:
                    batch.append(message)
                for message, blob in zip(chunk, batch.flush()):
                    if verifier.verify(message, blob):
                        verified.add(message)
            return verified

        whole = verifiable_set([messages])
        parts = verifiable_set([messages[:split], messages[split:]])
        assert whole == parts == set(messages)


def _sorted_events(tracer):
    return sorted(json.dumps(event, sort_keys=True)
                  for event in tracer.events())


_churn_specs = st.one_of(
    st.none(),
    st.sampled_from(["storm", "storm:0.5,0.5,0.25", "storm:1,0.5,0.5"]),
    st.integers(min_value=1, max_value=3).map(lambda n: f"flap:{n}"),
    st.integers(min_value=1, max_value=4).map(lambda b: f"flood:{b}"),
)


class TestSessionInvariance:
    @given(st.integers(min_value=2, max_value=6),
           st.one_of(st.none(),
                     st.floats(min_value=0.01, max_value=1.0)),
           _churn_specs)
    @example(batch_size=4, flush_deadline=None, churn="storm:1,0.5,0.5")
    @settings(max_examples=12, deadline=None)
    def test_random_batching_leaves_transcripts_identical(
            self, batch_size, flush_deadline, churn):
        base = dict(receivers=3, blocks=5, block_size=4, payload_size=8,
                    loss_schedule=((0, 0.1),), seed=31, adaptive=False,
                    churn=churn)
        per_block_trace = LifecycleTracer(run_seed=31)
        per_block = run_live_session(ServeConfig(**base),
                                     lifecycle=per_block_trace)
        batched_trace = LifecycleTracer(run_seed=31)
        batched = run_live_session(ServeConfig(
            **base, batch_size=batch_size, flush_deadline=flush_deadline),
            lifecycle=batched_trace)
        assert batched.transcripts == per_block.transcripts
        assert batched.forged_accepted == 0
        # Same packets to the same receivers (a crash victim still gets
        # its crash block), only in flush order.
        assert (_sorted_events(batched_trace)
                == _sorted_events(per_block_trace))

    @given(st.integers(min_value=2, max_value=8),
           st.one_of(st.none(),
                     st.floats(min_value=0.01, max_value=1.0)))
    @settings(max_examples=6, deadline=None)
    def test_churn_storm_under_pollution_stays_sound(self, batch_size,
                                                     flush_deadline):
        batched = run_live_session(ServeConfig(
            receivers=4, blocks=8, block_size=4, payload_size=8,
            loss_schedule=((0, 0.1), (4, 0.3)), seed=31,
            churn="storm", attack="pollution", batch_size=batch_size,
            flush_deadline=flush_deadline))
        assert batched.forged_accepted == 0
