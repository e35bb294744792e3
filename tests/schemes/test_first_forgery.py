"""A forgery that arrives first must not lock the genuine packet out.

Every registry scheme's verifier keeps the one slot rule of
:class:`~repro.schemes.base.Verifier`: a packet that fails its check
never claims the sequence slot and counts in ``forged_rejected`` each
time it arrives; a copy of content the verifier holds or has accepted
counts in ``replays_dropped``.  The trial: a 4-packet block whose
position-2 packet is contested by a payload-swapped copy of itself.
The contested copies arrive either where the packet is sent (in place)
or after every other packet of the trial (late), when every scheme can
check them on arrival.
"""

from dataclasses import replace

import pytest

from repro.analysis.conformance import DEFAULT_SPECS, default_scheme
from repro.crypto.signatures import HmacStubSigner

NAMES = sorted(DEFAULT_SPECS)
SIGNER = HmacStubSigner(key=b"first-forgery")


def _deliver(name, order, late=True):
    """Feed a 4-packet trial with the contested copies in ``order``.

    Returns the verifier, the genuine contested packet and the
    ``forged_rejected`` reading right after the first contested copy.
    """
    trial = default_scheme(name).new_trial(SIGNER, 4, 1, seed=3)
    (seq,) = [seq for seq, position in trial.positions.items()
              if position == 2]
    genuine = next(packet for packet in trial.packets if packet.seq == seq)
    stream = {"genuine": genuine,
              "forged": replace(genuine,
                                payload=genuine.payload[::-1] + b"!")}
    verifier = trial.new_verifier()
    first_rejected = None

    def contest():
        nonlocal first_rejected
        for index, which in enumerate(order):
            verifier.receive(stream[which], 0.0)
            if index == 0:
                first_rejected = verifier.forged_rejected
    for packet in trial.packets:
        if packet.seq == seq:
            if not late:
                contest()
            continue
        verifier.receive(packet, 0.0)
    if late:
        contest()
    verifier.finish()
    return verifier, genuine, first_rejected


def _verified(verifier, seq):
    record = verifier.verdict(seq)
    return record is not None and record.verified


@pytest.mark.parametrize("name", NAMES)
def test_genuine_packet_verifies_after_a_forgery(name):
    for late in (False, True):
        verifier, genuine, _ = _deliver(name, ["forged", "genuine"], late)
        assert _verified(verifier, genuine.seq)
        assert verifier.forged_rejected == 1
        assert verifier.replays_dropped == 0
        assert verifier.accepted_digests()[genuine.seq] == \
            verifier.content_digest(genuine)
        assert all(_verified(verifier, seq)
                   for seq in verifier.accepted_digests())
        assert len(verifier.accepted_digests()) >= 4


@pytest.mark.parametrize("name", NAMES)
def test_copies_after_the_genuine_packet(name):
    # Checked on arrival, each forged copy is rejected and the repeat of
    # the taken packet is a replay.
    verifier, genuine, _ = _deliver(
        name, ["forged", "genuine", "genuine", "forged"])
    assert _verified(verifier, genuine.seq)
    assert verifier.accepted_digests()[genuine.seq] == \
        verifier.content_digest(genuine)
    assert verifier.forged_rejected == 2
    assert verifier.replays_dropped == 1


@pytest.mark.parametrize("name", NAMES)
def test_genuine_first_counts_as_before(name):
    verifier, genuine, _ = _deliver(
        name, ["genuine", "forged", "genuine", "forged"])
    assert _verified(verifier, genuine.seq)
    assert verifier.forged_rejected == 2
    assert verifier.replays_dropped == 1
    assert verifier.accepted_digests()[genuine.seq] == \
        verifier.content_digest(genuine)


@pytest.mark.parametrize("name", NAMES)
def test_lone_forgery_copies_are_each_rejected(name):
    # Without the genuine packet, every copy of the forgery fails its
    # check on arrival and counts in forged_rejected; none is a replay.
    verifier, genuine, _ = _deliver(name, ["forged", "forged"])
    assert not _verified(verifier, genuine.seq)
    assert verifier.forged_rejected == 2
    assert verifier.replays_dropped == 0
    assert genuine.seq not in verifier.accepted_digests()


@pytest.mark.parametrize("name", NAMES)
def test_copies_held_before_their_check(name):
    # In place, a scheme that cannot check the slot yet holds both
    # contenders, and a repeat of either is a copy of held content.  A
    # scheme that checks on arrival counts as it does late.
    verifier, genuine, first_rejected = _deliver(
        name, ["forged", "genuine", "genuine", "forged"], late=False)
    assert _verified(verifier, genuine.seq)
    assert verifier.accepted_digests()[genuine.seq] == \
        verifier.content_digest(genuine)
    if first_rejected:
        assert (verifier.forged_rejected, verifier.replays_dropped) == (2, 1)
    else:
        assert (verifier.forged_rejected, verifier.replays_dropped) == (1, 2)
