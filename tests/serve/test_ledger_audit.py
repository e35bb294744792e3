"""The live soundness audit against the pool's in-process ledger.

The sender hands each receiver's ground truth for a block (its intact
set and the block's authentic digests) to the receiver pool as a
:class:`~repro.serve.receiver.BlockTruth`.  Every serve test asserts
``forged_accepted == 0``; these show that the audit can fire at all,
that it covers every acceptance since the previous close (not only the
block's own slots), that a missing ledger entry fails the session
loudly, and that the ledger only ever holds the blocks in flight.
"""

import dataclasses

import pytest

from repro.exceptions import SimulationError
from repro.serve.receiver import ReceiverPool, ReceiverSession
from repro.serve.service import ServeConfig, run_live_session

CONFIG = ServeConfig(receivers=3, blocks=4, block_size=8, seed=11)


def _before_close(monkeypatch, hook):
    """Run ``hook(session, frame)`` just before every block close."""
    close_block = ReceiverSession.close_block

    def hooked(session, frame, now):
        hook(session, frame)
        return close_block(session, frame, now)

    monkeypatch.setattr(ReceiverSession, "close_block", hooked)


def test_tampered_authentic_digest_counts_one_forgery(monkeypatch):
    tampered = []

    def tamper(session, frame):
        if (session.receiver_id, frame.block_id) != ("r01", 2):
            return
        outcomes = session.stream.verifier.outcomes
        seq = next(s for s in range(frame.base_seq, frame.last_seq + 1)
                   if s in outcomes and outcomes[s].verified)
        truth = session.ledger[("r01", 2)]
        digests = dict(truth.digests)
        digests[seq] = bytes(b ^ 0xFF for b in digests[seq])
        session.ledger[("r01", 2)] = dataclasses.replace(truth,
                                                         digests=digests)
        tampered.append(truth.phase)

    _before_close(monkeypatch, tamper)
    result = run_live_session(CONFIG)
    (phase,) = tampered
    assert result.forged_accepted == 1
    assert result.stats[phase].forged_accepted == 1


def test_verified_seq_outside_the_frame_is_still_audited(monkeypatch):
    """The audit covers every acceptance since the previous close.

    One block's frame is cut one seq short and that seq's digest is
    taken out of the ledger: the seq verified, so the audit must flag
    it even though no slot of the block names it.
    """
    close_block = ReceiverSession.close_block
    cut = []

    def hooked(session, frame, now):
        key = (session.receiver_id, frame.block_id)
        if key == ("r01", 2):
            seq = frame.last_seq
            assert session.stream.verifier.outcomes[seq].verified
            truth = session.ledger[key]
            digests = {s: d for s, d in truth.digests.items() if s != seq}
            session.ledger[key] = dataclasses.replace(truth, digests=digests)
            frame = dataclasses.replace(frame, last_seq=seq - 1)
            cut.append(truth.phase)
        return close_block(session, frame, now)

    monkeypatch.setattr(ReceiverSession, "close_block", hooked)
    result = run_live_session(CONFIG)
    (phase,) = cut
    assert result.forged_accepted == 1
    assert result.stats[phase].forged_accepted == 1


def test_missing_ledger_entry_fails_the_session(monkeypatch):
    def drop(session, frame):
        if (session.receiver_id, frame.block_id) == ("r02", 1):
            del session.ledger[("r02", 1)]

    _before_close(monkeypatch, drop)
    with pytest.raises(SimulationError, match=r"'r02' block 1"):
        run_live_session(CONFIG)


@pytest.mark.parametrize("batch_size", [1, 4])
def test_ledger_is_empty_after_a_storm(monkeypatch, batch_size):
    pools = []
    init = ReceiverPool.__init__
    crashed_entries = []

    def recorded_init(pool, *args, **kwargs):
        init(pool, *args, **kwargs)
        pools.append(pool)

    def note_crashes(session, frame):
        (pool,) = pools
        crashed_entries.extend(
            key for key in pool.ledger
            if key[0] not in pool.active_ids)

    monkeypatch.setattr(ReceiverPool, "__init__", recorded_init)
    _before_close(monkeypatch, note_crashes)
    config = ServeConfig(receivers=8, blocks=16, block_size=8,
                         attack="pollution", churn="storm",
                         batch_size=batch_size, seed=5)
    result = run_live_session(config)
    (pool,) = pools
    assert result.forged_accepted == 0
    # Crash victims were sent blocks they never settled; their entries
    # left with those blocks all the same.
    assert crashed_entries
    assert pool.ledger == {}
