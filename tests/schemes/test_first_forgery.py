"""A forgery that arrives first must not lock the genuine packet out.

The individually verifiable verifiers (sign-each, Wong–Lam) and the
online chain reject a packet that fails its check without letting it
claim the sequence slot, as the hash-chain receiver does.  The trial: a
4-packet block whose packet 2 is preceded by a payload-swapped copy of
itself.
"""

from dataclasses import replace

import pytest

from repro.crypto.signatures import HmacStubSigner
from repro.schemes.rohatgi_online import OnlineRohatgiScheme
from repro.schemes.sign_each import SignEachScheme
from repro.schemes.wong_lam import WongLamScheme

SCHEMES = {
    "sign-each": SignEachScheme(),
    "wong-lam": WongLamScheme(),
    "rohatgi-online": OnlineRohatgiScheme(seed=b"first-forgery"),
}


def _deliver(scheme, order):
    """Feed a 4-packet trial in ``order``; return (verifier, genuine 2)."""
    trial = scheme.new_trial(HmacStubSigner(key=b"first-forgery"), 4, 1,
                             seed=3)
    by_seq = {packet.seq: packet for packet in trial.packets}
    genuine = by_seq[2]
    forged = replace(genuine, payload=genuine.payload[::-1] + b"!")
    verifier = trial.new_verifier()
    stream = {"genuine": genuine, "forged": forged}
    for packet in trial.packets:
        if packet.seq != 2:
            verifier.receive(packet, 0.0)
            continue
        for name in order:
            verifier.receive(stream[name], 0.0)
    verifier.finish()
    return verifier, genuine


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_genuine_packet_verifies_after_a_forgery(name):
    verifier, genuine = _deliver(SCHEMES[name], ["forged", "genuine"])
    assert verifier.verdict(2).verified
    assert verifier.forged_rejected == 1
    assert verifier.replays_dropped == 0
    assert verifier.accepted_digests()[2] == verifier.content_digest(genuine)
    assert all(verifier.verdict(seq).verified for seq in (1, 3, 4))


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_copies_after_the_genuine_packet(name):
    # Copies of the taken packet and of the rejected first arrival are
    # replays; the forgery is rejected once and never verifies.
    verifier, genuine = _deliver(SCHEMES[name],
                                 ["forged", "genuine", "genuine", "forged"])
    assert verifier.verdict(2).verified
    assert verifier.accepted_digests()[2] == verifier.content_digest(genuine)
    assert verifier.forged_rejected == 1
    assert verifier.replays_dropped == 2


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_genuine_first_counts_as_before(name):
    verifier, genuine = _deliver(SCHEMES[name],
                                 ["genuine", "forged", "genuine", "forged"])
    assert verifier.verdict(2).verified
    assert verifier.forged_rejected == 2
    assert verifier.replays_dropped == 1
    assert verifier.accepted_digests()[2] == verifier.content_digest(genuine)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_lone_forgery_repeats_are_replays(name):
    # Without the genuine packet, the first arrival keeps the slot's
    # record and its repeat counts in replays_dropped, as it always did.
    verifier, _ = _deliver(SCHEMES[name], ["forged", "forged"])
    assert not verifier.verdict(2).verified
    # The online chain cannot tell a lone failed link from a genuine
    # packet whose chain a loss broke, so it counts neither.
    assert verifier.forged_rejected == (0 if name == "rohatgi-online"
                                        else 1)
    assert verifier.replays_dropped == 1
    assert 2 not in verifier.accepted_digests()
