"""Work count of a live session: one signature verification per signed frame.

Every receiver of a pool verifies through the one shared
``BatchVerifier``, whose plain-signature map runs the session signer
once per distinct ``(auth_bytes, signature)`` pair.  Counted here by
wrapping ``HmacStubSigner.verify`` (the default session signer), the
pool verifier's ``verify`` and ``ChainReceiver.receive``.  The reference
runs replace the passthrough branch with a direct call to the bare
signer, so every receiver pays its own verification, and must produce
the same transcripts.  Signature packets are loss- and
corruption-protected and forged copies follow the genuine delivery, so
under pollution most forged signed frames are refused before any
verification.
"""

import pytest

from repro.crypto.batch import BatchVerifier, is_batch_attachment
from repro.crypto.signatures import HmacStubSigner
from repro.serve.service import ServeConfig, run_live_session
from repro.simulation.receiver import ChainReceiver

BASE = dict(receivers=16, blocks=6, block_size=12, adaptive=False, seed=53)

CLEAN = ServeConfig(**BASE, loss_schedule=((0, 0.0),))
POLLUTED = ServeConfig(**BASE, attack="pollution")


def _counted_run(monkeypatch, config):
    """Run ``config``, counting signature work.

    Returns the session result, the inner ``verify`` calls, the
    ``(auth_bytes, signature)`` pairs the receivers asked the pool
    verifier about, and the signed pairs delivered to them.
    """
    inner = [0]
    asked = []
    delivered = []
    hmac_verify = HmacStubSigner.verify
    pool_verify = BatchVerifier.verify
    receive = ChainReceiver.receive

    def counted_hmac_verify(signer, message, signature):
        inner[0] += 1
        return hmac_verify(signer, message, signature)

    def recorded_pool_verify(verifier, message, signature):
        asked.append((message, signature))
        return pool_verify(verifier, message, signature)

    def recorded_receive(receiver, packet, arrival_time, digest=None):
        if packet.signature is not None:
            delivered.append((packet.auth_bytes(), packet.signature))
        return receive(receiver, packet, arrival_time, digest)

    with monkeypatch.context() as patch:
        patch.setattr(HmacStubSigner, "verify", counted_hmac_verify)
        patch.setattr(BatchVerifier, "verify", recorded_pool_verify)
        patch.setattr(ChainReceiver, "receive", recorded_receive)
        result = run_live_session(config)
    return result, inner[0], asked, delivered


def _uncached_run(monkeypatch, config):
    """Run ``config`` with every plain signature verified by the bare signer."""
    pool_verify = BatchVerifier.verify

    def bare_passthrough(verifier, message, signature):
        if signature is not None and not is_batch_attachment(signature):
            return verifier._signer.verify(message, signature)
        return pool_verify(verifier, message, signature)

    with monkeypatch.context() as patch:
        patch.setattr(BatchVerifier, "verify", bare_passthrough)
        return run_live_session(config)


def test_clean_channel_verifies_each_block_signature_once(monkeypatch):
    result, inner, asked, delivered = _counted_run(monkeypatch, CLEAN)
    assert result.forged_accepted == 0
    assert inner == len(set(asked)) == len(set(delivered)) == CLEAN.blocks
    # Every receiver asked about every block's signature.
    assert len(asked) == CLEAN.receivers * CLEAN.blocks


def test_pollution_verifies_each_distinct_pair_once(monkeypatch):
    result, inner, asked, delivered = _counted_run(monkeypatch, POLLUTED)
    assert result.forged_accepted == 0
    assert inner == len(set(asked))
    assert len(asked) > len(set(asked))
    # Forged copies of signed frames reached the receivers too; each
    # one either cost one shared verification or was refused before
    # any (its slot already held the verified genuine frame).
    assert set(asked) <= set(delivered)
    assert len(set(delivered)) > POLLUTED.blocks


@pytest.mark.parametrize("config", [CLEAN, POLLUTED],
                         ids=["clean", "pollution"])
def test_transcripts_match_uncached_verification(monkeypatch, config):
    cached = _counted_run(monkeypatch, config)[0]
    uncached = _uncached_run(monkeypatch, config)
    assert cached.transcripts == uncached.transcripts
    assert cached.delivered == uncached.delivered
    assert uncached.forged_accepted == 0
