"""The per-receiver ``delivered`` counter counts every released payload.

A live receiver releases verified payloads in sequence order both while
it ingests a run of frames and when it closes a block.  The registry
counter ``serve.<receiver>.delivered`` takes each block's share of the
stream's running ``delivered`` count, so the counters of a session's
receivers sum to :attr:`~repro.serve.service.SessionResult.delivered`.

The transcript's ``delivered`` field still counts only the payloads
released at block close (``docs/serving.md`` says so); these tests pin
that too, so a change to it is a deliberate re-pin.
"""

import json

import pytest

from repro.obs.registry import MetricsRegistry, use_registry
from repro.serve.service import ServeConfig, run_live_session

CONFIG = ServeConfig(seed=3, receivers=2, blocks=4, block_size=12)


@pytest.fixture(scope="module")
def served():
    with use_registry(MetricsRegistry()) as registry:
        session = run_live_session(CONFIG)
    return session, registry


def test_counters_sum_to_the_session_delivered(served):
    session, registry = served
    counted = {receiver: registry.counter(f"serve.{receiver}.delivered")
               for receiver in session.transcripts}
    assert len(counted) == CONFIG.receivers
    assert session.delivered > 0
    assert sum(counted.values()) == session.delivered


def test_each_receiver_counts_what_its_blocks_verified(served):
    session, registry = served
    for receiver, transcript in session.transcripts.items():
        verified = sum(
            code == "v"
            for line in transcript.decode().splitlines()
            for _, code, _ in json.loads(line)["events"])
        # Payloads release in order: a verified slot behind a lost one
        # waits, so a receiver delivers at most what it verified.
        assert 0 < registry.counter(f"serve.{receiver}.delivered") <= verified


def test_the_transcript_field_still_counts_close_releases_only(served):
    session, registry = served
    lines = [json.loads(line)
             for line in session.transcripts["r01"].decode().splitlines()]
    fields = [line["delivered"] for line in lines]
    assert sum(fields) < registry.counter("serve.r01.delivered")
