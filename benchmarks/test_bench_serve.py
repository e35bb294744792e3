"""Live-serving throughput: packets/sec through the local transport.

Not a paper figure — this watches the asyncio serving stack end to
end: one :func:`~repro.serve.service.run_live_session` per receiver
count (1, 16 and 64 concurrent sessions) on the deterministic local
transport, signing, streaming, verifying and closing every block.
The headline number is authenticated packets delivered per wall-clock
second; the fan-out series shows how the single-sender event loop
amortizes across sessions.
"""

import time

import pytest

from repro.crypto.signatures import RsaSigner
from repro.experiments.common import ExperimentResult
from repro.serve.service import ServeConfig, run_live_session

BLOCKS = 4
BLOCK_SIZE = 8
RECEIVER_COUNTS = (1, 16, 64)

#: Batch-signing comparison: a real (expensive) signature scheme, the
#: fan-out where amortization matters, one batch covering the session.
RSA_BITS = 3072
BATCH_RECEIVERS = 64
BATCH_BLOCKS = 8
BATCH_SIZE = 8
MIN_BATCH_SPEEDUP = 3.0


def _config(receivers):
    return ServeConfig(receivers=receivers, blocks=BLOCKS,
                       block_size=BLOCK_SIZE,
                       loss_schedule=((0, 0.05),), seed=17)


@pytest.mark.parametrize("receivers", RECEIVER_COUNTS)
def test_serve_throughput(benchmark, show, receivers):
    config = _config(receivers)
    session = benchmark(run_live_session, config)

    assert session.forged_accepted == 0
    assert session.delivered > 0
    for transcript in session.transcripts.values():
        assert len(transcript.splitlines()) == BLOCKS

    seconds = benchmark.stats.stats.mean
    result = ExperimentResult(
        experiment_id="bench-serve",
        title=f"live serving fan-out, {receivers} receiver(s)",
    )
    result.rows.append({
        "receivers": receivers,
        "blocks": BLOCKS,
        "delivered pkts": session.delivered,
        "session s": seconds,
        "pkts/sec": session.delivered / seconds,
    })
    result.note("local transport, virtual time, loss p=0.05, "
                "adaptive controller on")
    show(result)


CHURN_RECEIVERS = 16
CHURN_BLOCKS = 12


def test_bench_churn(benchmark, show):
    """Packets/sec with the seeded membership storm live.

    Same shape as the fan-out series but with the churn machinery on
    the hot path: plan execution at every boundary, mid-block crash
    strikes, barrier reshaping and membership-aware estimator folds.
    The gate work stays the same: zero forged acceptances and a
    transcript for every member that was ever active.
    """
    config = ServeConfig(receivers=CHURN_RECEIVERS, blocks=CHURN_BLOCKS,
                         block_size=BLOCK_SIZE,
                         loss_schedule=((0, 0.05),), churn="storm",
                         seed=17)
    session = benchmark(run_live_session, config)

    assert session.forged_accepted == 0
    assert session.delivered > 0
    membership = session.manifest.parameters["membership"]
    assert sum(membership["counts"].values()) > 0
    # Churned transcripts cover each member's active interval, so the
    # total line count is the sum of those intervals — deterministic
    # at this seed, bounded by the full roster's.
    total_lines = sum(len(t.splitlines())
                      for t in session.transcripts.values())
    assert 0 < total_lines <= 2 * CHURN_RECEIVERS * CHURN_BLOCKS

    seconds = benchmark.stats.stats.mean
    result = ExperimentResult(
        experiment_id="bench-serve-churn",
        title=f"churned serving, {CHURN_RECEIVERS}+spares, storm plan",
    )
    counts = membership["counts"]
    result.rows.append({
        "receivers": CHURN_RECEIVERS,
        "blocks": CHURN_BLOCKS,
        "joins": counts["join"],
        "departures": counts["leave"] + counts["crash"],
        "delivered pkts": session.delivered,
        "session s": seconds,
        "pkts/sec": session.delivered / seconds,
    })
    result.note("local transport, seeded storm churn, membership-aware "
                "estimator folding")
    show(result)


@pytest.fixture(scope="module")
def rsa_signer():
    """One ``RSA_BITS``-bit key pair shared by both arms of the comparison."""
    return RsaSigner.generate(RSA_BITS)


def _batch_config(batch_size):
    return ServeConfig(receivers=BATCH_RECEIVERS, blocks=BATCH_BLOCKS,
                       block_size=2, payload_size=16,
                       loss_schedule=((0, 0.05),), seed=17,
                       adaptive=False, batch_size=batch_size)


def test_serve_batch_signing_speedup(benchmark, show, rsa_signer):
    """>= 3x pkts/sec at 64 receivers with batch 8 vs per-block RSA.

    Per-block signing pays one RSA signature per block; the pool's
    shared verifier caches each plain signature's verdict, so it also
    pays one real RSA verification per block for the whole pool, not
    one per (receiver, block).  Batch signing pays one signature per 8
    blocks and, through the same shared verifier, one real
    verification per batch for the whole pool.  Both arms
    must produce byte-identical receiver transcripts: the speedup may
    not change a single verdict.
    """
    per_block_config = _batch_config(1)
    batch_config = _batch_config(BATCH_SIZE)

    per_block_seconds = []
    for _ in range(2):
        start = time.perf_counter()
        per_block_session = run_live_session(per_block_config,
                                             signer=rsa_signer)
        per_block_seconds.append(time.perf_counter() - start)
    per_seconds = min(per_block_seconds)

    batch_session = benchmark(run_live_session, batch_config, rsa_signer)
    # min-of-rounds on both arms: the gate compares best-case against
    # best-case so scheduler noise cannot flip it either way
    batch_seconds = benchmark.stats.stats.min

    assert per_block_session.forged_accepted == 0
    assert batch_session.forged_accepted == 0
    assert batch_session.transcripts == per_block_session.transcripts
    assert batch_session.delivered == per_block_session.delivered
    assert batch_session.delivered > 0

    pkts_per_sec_batch = batch_session.delivered / batch_seconds
    pkts_per_sec_per_block = per_block_session.delivered / per_seconds
    speedup = pkts_per_sec_batch / pkts_per_sec_per_block
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"batch signing only {speedup:.2f}x over per-block "
        f"(need >= {MIN_BATCH_SPEEDUP}x): {batch_seconds:.4f}s vs "
        f"{per_seconds:.4f}s per session")

    result = ExperimentResult(
        experiment_id="bench-serve-batch",
        title=f"batch signing, {BATCH_RECEIVERS} receivers, "
              f"rsa-{RSA_BITS}",
    )
    for arm, seconds, pkts in (
            ("per-block", per_seconds, pkts_per_sec_per_block),
            (f"batch {BATCH_SIZE}", batch_seconds, pkts_per_sec_batch)):
        result.rows.append({
            "signing": arm,
            "blocks": BATCH_BLOCKS,
            "delivered pkts": batch_session.delivered,
            "session s": seconds,
            "pkts/sec": pkts,
        })
    result.note(f"one RSA-{RSA_BITS} key, identical transcripts; "
                f"speedup {speedup:.2f}x (gate >= {MIN_BATCH_SPEEDUP}x)")
    show(result)
