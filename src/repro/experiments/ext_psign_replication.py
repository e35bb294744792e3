"""Extension: what does the "P_sign always received" assumption cost?

Every analysis in the paper conditions on the signature packet
arriving, noting it "can be easily achieved by sending it multiple
times".  This ablation removes the modeling shortcut: signature
packets go through the same lossy channel as everything else, sent
``c`` times, and we measure the empirical ``q_min`` as ``c`` grows —
alongside the analytic prediction

    ``q_i(c) = (1 − p^c) · q_i(protected)``

(the root survives iff any copy does; its loss voids the block) and
the overhead each extra copy adds (Eq. 3's ``sign_copies`` term).
"""

from __future__ import annotations

from repro.analysis import exact_chain
from repro.core.metrics import overhead_bytes_per_packet
from repro.crypto.signatures import HmacStubSigner
from repro.experiments.common import ExperimentResult
from repro.network.channel import Channel
from repro.network.loss import BernoulliLoss
from repro.schemes.emss import EmssScheme
from repro.simulation.receiver import ChainReceiver
from repro.simulation.sender import (
    StreamSender,
    make_payloads,
    replicate_signature_packets,
)

__all__ = ["run"]


def _measure(scheme, block, trials, p, copies, seed):
    """Empirical q_min with c unprotected signature transmissions."""
    signer = HmacStubSigner(key=b"psign-ablation")
    received = {}
    verified = {}
    for trial in range(trials):
        sender = StreamSender(scheme, signer, block)
        packets = replicate_signature_packets(
            sender.send_block(make_payloads(block)), copies)
        channel = Channel(loss=BernoulliLoss(p, seed=seed + trial),
                          protect_signature_packets=False)
        receiver = ChainReceiver(signer)
        delivered = set()
        for delivery in channel.transmit(packets):
            receiver.receive(delivery.packet, delivery.arrival_time)
            delivered.add(delivery.packet.seq)
        for seq in delivered:
            received[seq] = received.get(seq, 0) + 1
            if receiver.verdict(seq).verified:
                verified[seq] = verified.get(seq, 0) + 1
    profile = {seq: verified.get(seq, 0) / count
               for seq, count in received.items()}
    return min(profile.values())


def run(fast: bool = False) -> ExperimentResult:
    """Sweep signature copies c = 1..4 at p in {0.1, 0.3}."""
    result = ExperimentResult(
        experiment_id="ext-psign",
        title="Ablating the 'P_sign always received' assumption",
    )
    block = 24 if fast else 48
    trials = 150 if fast else 600
    copies_sweep = [1, 2, 3, 4]
    scheme = EmssScheme(2, 1)
    graph = scheme.build_graph(block)
    for p in (0.1, 0.3):
        protected = exact_chain.exact_q_min(block, 2, p)
        empirical = []
        predicted = []
        for copies in copies_sweep:
            q = _measure(scheme, block, trials, p, copies, seed=900)
            empirical.append(q)
            predicted.append((1 - p ** copies) * protected)
            result.rows.append({
                "p": p,
                "copies": copies,
                "q_min empirical": q,
                "q_min predicted": predicted[-1],
                "bytes/pkt": overhead_bytes_per_packet(
                    graph, 128, 16, sign_copies=copies),
            })
        result.add_series(f"empirical p={p:g}", copies_sweep, empirical)
        result.add_series(f"predicted p={p:g}", copies_sweep, predicted)
        for q, prediction in zip(empirical, predicted):
            if abs(q - prediction) > 0.12:
                result.note(
                    f"WARNING: ablation deviates from (1-p^c)*q model at "
                    f"p={p} ({q:.3f} vs {prediction:.3f})"
                )
    result.note(
        "two transmissions already recover most of the protected-root "
        "q_min at p=0.1 (loss of the root voids the whole block, so the "
        "penalty is the factor 1 - p^c); each extra copy costs one "
        "amortized signature in Eq. 3.  The paper's assumption is thus "
        "cheap to realize but not free — exactly as it claims."
    )
    return result
