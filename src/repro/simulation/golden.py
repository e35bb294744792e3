"""Golden session recordings: one pinned trace per scheme.

A golden trace freezes two things at once: the **wire format** (every
byte the sender emits for a fixed payload set, signer key and channel
seed) and the **verification semantics** (which send positions a fresh
receiver verifies when the recorded deliveries are replayed).  The
regression suite (``tests/simulation/test_golden_traces.py``) checks
both: regenerating the session must reproduce the stored
:class:`~repro.simulation.trace.SessionTrace` byte-for-byte, and
replaying the *stored* trace into a fresh receiver must reproduce the
stored outcome.  An incompatible change to packet layout, hashing,
signing or receiver logic fails one of the two — loudly, with a diff
against a file in version control.

Everything here is deterministic by construction: fixed payloads
(:func:`~repro.simulation.sender.make_payloads`), an HMAC stub signer
with a fixed key, seeded channel loss, and explicit seeds for the two
schemes with internal randomness (the online chain's one-time key
pairs, TESLA's key chain).

Regenerate the files after an *intentional* format change with::

    PYTHONPATH=src python -m repro.simulation.golden tests/data/traces
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.analysis.conformance import DEFAULT_SPECS, default_scheme
from repro.crypto.hashing import sha256
from repro.crypto.signatures import HmacStubSigner, Signer
from repro.network.channel import Channel
from repro.network.delay import ConstantDelay
from repro.network.loss import BernoulliLoss
from repro.packets import Packet
from repro.schemes.base import Scheme, Trial
from repro.schemes.rohatgi_online import OnlineRohatgiScheme
from repro.schemes.tesla import TeslaScheme
from repro.simulation.trace import SessionTrace

__all__ = [
    "GOLDEN_BLOCK",
    "GOLDEN_LOSS",
    "GOLDEN_CHANNEL_SEED",
    "GoldenCase",
    "golden_scheme",
    "record_golden",
    "replay_golden",
    "trace_path",
    "expected_path",
    "record_topology_session",
    "topology_session_path",
    "write_golden_files",
]

GOLDEN_BLOCK = 12
GOLDEN_LOSS = 0.25
GOLDEN_CHANNEL_SEED = 2003  # the paper's publication year
_SIGNER_KEY = b"golden-trace"
_ONLINE_OTS_SEED = b"golden-ots"
_TESLA_CHAIN_SEED = b"golden-tesla"


@dataclass(frozen=True)
class GoldenCase:
    """One scheme's recorded session and its expected replay outcome."""

    name: str
    trace: SessionTrace
    expected: Dict[str, object]


def _golden_signer() -> Signer:
    return HmacStubSigner(key=_SIGNER_KEY, signature_size=128)


def golden_scheme(name: str) -> Scheme:
    """The conformance default scheme, with internal randomness pinned."""
    if name == "rohatgi-online":
        return OnlineRohatgiScheme(seed=_ONLINE_OTS_SEED)
    if name == "tesla":
        return TeslaScheme(default_scheme(name).parameters,
                           seed=_TESLA_CHAIN_SEED)
    return default_scheme(name)


def _golden_channel() -> Channel:
    return Channel(loss=BernoulliLoss(GOLDEN_LOSS, seed=GOLDEN_CHANNEL_SEED),
                   delay=ConstantDelay(0.0))


def _golden_trial(name: str) -> Trial:
    """The deterministic golden stream, with its verifier factory."""
    return golden_scheme(name).new_trial(_golden_signer(), GOLDEN_BLOCK, 1)


def _positions(packets: Sequence[Packet],
               seqs: Iterable[int]) -> List[int]:
    """Map sequence numbers to 1-based send positions."""
    order = {packet.seq: index + 1 for index, packet in enumerate(packets)}
    return sorted(order[seq] for seq in seqs if seq in order)


def replay_golden(name: str, trace: SessionTrace) -> Dict[str, object]:
    """Replay ``trace`` into a fresh receiver; return the outcome record.

    The receiver (and, where needed, key material) is rebuilt from the
    golden seeds, never from the trace itself — so a trace recorded by
    an older build is verified by *today's* code, which is exactly the
    compatibility the golden suite pins.
    """
    trial = _golden_trial(name)
    verifier = trial.new_verifier()
    trace.replay(verifier.receive)
    verifier.finish()
    received = [record.packet.seq for record in trace]
    verdicts = [verifier.verdict(seq) for seq in received]
    verified = {record.seq for record in verdicts
                if record is not None and record.verified}
    return {
        "scheme": golden_scheme(name).name,
        "block_size": GOLDEN_BLOCK,
        "loss_rate": GOLDEN_LOSS,
        "channel_seed": GOLDEN_CHANNEL_SEED,
        "packets_sent": len(trial.packets),
        "deliveries": len(trace),
        "received_positions": _positions(trial.packets, received),
        "verified_positions": _positions(trial.packets, verified),
    }


def record_golden(name: str) -> GoldenCase:
    """Run the deterministic golden session for ``name`` live."""
    trace = SessionTrace()
    trace.record_all(_golden_channel().transmit(_golden_trial(name).packets))
    return GoldenCase(name=name, trace=trace,
                      expected=replay_golden(name, trace))


# ---------------------------------------------------------------------
# Pinned topology session: serve-layer golden over correlated loss
# ---------------------------------------------------------------------

def record_topology_session() -> Dict[str, object]:
    """Run the pinned topology serve session and distill its identity.

    One fixed shared-spine session — subtree-adaptive controllers, the
    pollution adversary on every channel, a mid-stream loss ramp —
    reduced to a JSON record: per-receiver transcript SHA-256 digests
    plus the headline counters.  Every byte of the transcripts derives
    from seeds and virtual time, so the record regenerates exactly;
    any change to edge-seed derivation, tree construction, grouped
    packetization or receiver bookkeeping shows up as a digest diff
    against the versioned file.
    """
    # Imported lazily: the serve layer composes on top of simulation,
    # and this helper is the one place golden recording reaches up.
    from repro.serve.service import ServeConfig, run_live_session

    config = ServeConfig(
        receivers=6, blocks=10, block_size=12,
        loss_schedule=((0, 0.1), (5, 0.25)),
        attack="pollution", seed=GOLDEN_CHANNEL_SEED,
        topology="spine:2", trees=1, subtree_adaptive=True,
    )
    result = run_live_session(config)
    return {
        "config": config.to_parameters(),
        "seed": config.seed,
        "transcript_sha256": {
            receiver_id: sha256.digest(transcript).hex()
            for receiver_id, transcript in sorted(
                result.transcripts.items())
        },
        "delivered": result.delivered,
        "forged_accepted": result.forged_accepted,
        "duplicates_suppressed": result.duplicates_suppressed,
        "adaptation_events": [event.to_dict() for event in result.events],
        "subtrees": sorted({report.subtree
                            for reports in result.reports.values()
                            for report in reports}),
    }


def topology_session_path(directory: str) -> str:
    return os.path.join(directory, "topology-session.expected.json")


# ---------------------------------------------------------------------
# File layout + regeneration entry point
# ---------------------------------------------------------------------

def trace_path(directory: str, name: str) -> str:
    return os.path.join(directory, f"{name}.trace.jsonl")


def expected_path(directory: str, name: str) -> str:
    return os.path.join(directory, f"{name}.expected.json")


def write_golden_files(directory: str) -> List[str]:
    """(Re)generate every golden trace + expectation file; return paths."""
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []
    for name in sorted(DEFAULT_SPECS):
        case = record_golden(name)
        path = trace_path(directory, name)
        case.trace.dump(path)
        written.append(path)
        path = expected_path(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(case.expected, handle, indent=2, sort_keys=True)
            handle.write("\n")
        written.append(path)
    path = topology_session_path(directory)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record_topology_session(), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")
    written.append(path)
    return written


def main(argv: Sequence[str]) -> int:
    if len(argv) != 1:
        print("usage: python -m repro.simulation.golden <directory>",
              file=sys.stderr)
        return 2
    for path in write_golden_files(argv[0]):
        print(path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
