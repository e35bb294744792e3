"""A live receiver holds the blocks in flight, not the session.

Every block close drops the block's verifier state: outcomes, accepted
digests the audit has read, and trusted hashes, whether or not their
packet arrived (:meth:`~repro.simulation.receiver.ChainReceiver.\
close_block`).  So after a session no receiver holds state for any
sequence number at or below its closed horizon, and the hash-buffer
level reads 0 however many packets were lost.

The traced heap still grows with the session, by what the session
outputs rather than what it verifies: each receiver's transcript lines
and the per-phase ``SimulationStats.delays``, one float per verified
packet.  Those are held in memory until the session returns, so a
400-block session cannot stay within a small multiple of a 25-block
one.  The bound below leaves room for them and none for per-packet
verifier state: held for the whole session, that took the 400-block
peak to 23.4 MiB, against 6.3 MiB with it dropped at block close.
"""

import tracemalloc

import pytest

from repro.serve import ServeConfig, run_live_session
from repro.serve.receiver import ReceiverPool

PEAK_BOUND_400 = 8 * 1024 * 1024


def _run(monkeypatch, blocks, trace=False):
    """One session: its receivers' verifiers and the traced heap peak."""
    pools = []
    init = ReceiverPool.__init__

    def recorded_init(pool, *args, **kwargs):
        init(pool, *args, **kwargs)
        pools.append(pool)

    monkeypatch.setattr(ReceiverPool, "__init__", recorded_init)
    config = ServeConfig(seed=3, receivers=2, block_size=64, blocks=blocks)
    peak = None
    if trace:
        tracemalloc.start()
    try:
        result = run_live_session(config)
        if trace:
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        if trace:
            tracemalloc.stop()
    monkeypatch.undo()
    (pool,) = pools
    assert result.forged_accepted == 0
    verifiers = [session.stream.verifier
                 for session in pool.sessions.values()]
    return verifiers, peak


@pytest.mark.parametrize("blocks", [25, 100, 400])
def test_no_state_is_held_at_or_below_the_horizon(monkeypatch, blocks):
    verifiers, _ = _run(monkeypatch, blocks)
    for verifier in verifiers:
        horizon = verifier._horizon  # noqa: SLF001
        assert horizon == blocks * 64
        held = (set(verifier.outcomes) | set(verifier.accepted_digests())
                | set(verifier._trusted))  # noqa: SLF001
        assert not [seq for seq in held if seq <= horizon]
        assert verifier.pending_hash_count == 0
        assert verifier.buffered_count == 0


def test_the_traced_peak_of_a_long_session_is_bounded(monkeypatch):
    _run(monkeypatch, 2)  # warm every import and memo first
    _, peak = _run(monkeypatch, 400, trace=True)
    assert peak <= PEAK_BOUND_400, f"peak {peak / 2 ** 20:.1f} MiB"
