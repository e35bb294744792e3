"""Independent implementations the library is tested against.

The two exact ``q_i`` walks used to ship in ``repro.analysis``; the
engine (:mod:`repro.analysis.frontier`) now computes every profile
they do, and they stay here to check it by.  The trusting receiver
checks the hash-chain receiver on loss-only input.

* :func:`exact_periodic_q_profile_reference` — the original offset-set
  bitmask walk under iid loss.  Offset set ``A`` in signature-rooted
  indexing (``P_1 = P_sign``, always received): packet ``i`` is
  verifiable iff it is received and some ``P_{i-a}``, ``a ∈ A``, is
  verifiable, branches clamped to the root (``i - a <= 1``) always
  succeeding.  The state is the verifiability of the last ``max(A)``
  packets, one dictionary entry per bitmask.
* :func:`markov_chain_q_profile` — ``E_{m,1}`` under an m-state Markov
  loss channel, as the pair (channel state, current run of
  unverifiable packets), walked away from ``P_sign`` in ``O(n · s · m)``.
  It steps the *forward* kernel although EMSS sends ``P_sign`` last, so
  it is exact only for reversible chains, and it raises
  :class:`~repro.exceptions.AnalysisError` on a chain that fails
  detailed balance; Gilbert–Elliott channels (two states) always pass.
* :class:`TrustingChainReceiver` — a hash-chain receiver that trusts
  its channel to be loss-only: the first delivery per sequence claims
  the slot, a mismatch flags it forged, a repeated sequence is
  ignored.  It reads a scheme's edges from the same
  :class:`~repro.schemes.base.ChainEdges` the receiver takes.  On loss-only input
  :class:`~repro.simulation.receiver.ChainReceiver`, which defends
  against forgeries and replays, must agree with it on every verdict,
  buffer and count.
* :func:`reference_block` — the per-block builder that
  :class:`~repro.schemes.base.BlockPlan` replaced: it rebuilds,
  validates and sorts the scheme's graph on every call, builds every
  packet through the validating constructor and remembers nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.hashing import HashFunction, sha256
from repro.crypto.signatures import Signer
from repro.exceptions import AnalysisError
from repro.network.loss import GilbertElliottLoss
from repro.packets import Packet
from repro.schemes.base import ChainEdges, PacketOutcome, Scheme

__all__ = [
    "exact_periodic_q_profile_reference",
    "markov_chain_q_profile",
    "markov_chain_q_min",
    "gilbert_elliott_q_min",
    "TrustingChainReceiver",
    "reference_block",
]

_MAX_REACH = 16


def exact_periodic_q_profile_reference(n: int, offsets: Sequence[int],
                                       p: float) -> List[float]:
    """Exact ``[q_1 .. q_n]`` for offsets ``A``, ``max(A) <= 16``, iid loss."""
    a_set = tuple(sorted(set(offsets)))
    if not a_set:
        raise AnalysisError("offset set must be non-empty")
    if any(a < 1 for a in a_set):
        raise AnalysisError(f"offsets must be positive: {offsets}")
    if a_set[-1] > _MAX_REACH:
        raise AnalysisError(
            f"max offset {a_set[-1]} exceeds exact-evaluation reach "
            f"{_MAX_REACH}; use Monte Carlo"
        )
    if n < 1:
        raise AnalysisError(f"block size must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise AnalysisError(f"loss rate must be in [0, 1], got {p}")
    reach = a_set[-1]
    survive = 1.0 - p
    # distribution over bitmasks of the last `reach` verifiability bits;
    # bit k (value 1 << k) is the packet k+1 positions back.
    distribution: Dict[int, float] = {1: 1.0} if reach >= 1 else {0: 1.0}
    # Start: position 1 is the root, verifiable with certainty -> the
    # "1 position back" bit is set when we stand at position 2.
    profile = [1.0]
    for i in range(2, n + 1):
        # Probability the current packet would be verifiable given
        # receipt: some offset branch alive (or clamped to the root).
        clamp = any(i - a <= 1 for a in a_set)
        alive = 0.0
        for state, probability in distribution.items():
            if clamp or any(state >> (a - 1) & 1 for a in a_set):
                alive += probability
        profile.append(alive if not clamp else 1.0)
        # Advance the joint distribution by one position.
        advanced: Dict[int, float] = {}
        for state, probability in distribution.items():
            supported = clamp or any(state >> (a - 1) & 1 for a in a_set)
            shifted = (state << 1) & ((1 << reach) - 1)
            if supported:
                verifiable_state = shifted | 1
                advanced[verifiable_state] = advanced.get(
                    verifiable_state, 0.0) + probability * survive
                advanced[shifted] = advanced.get(
                    shifted, 0.0) + probability * p
            else:
                advanced[shifted] = advanced.get(
                    shifted, 0.0) + probability
        distribution = advanced
    return profile



def _stationary(transition: np.ndarray) -> np.ndarray:
    states = transition.shape[0]
    a = np.vstack([transition.T - np.eye(states), np.ones(states)])
    b = np.zeros(states + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()


def markov_chain_q_profile(n: int, m: int,
                           transition: Sequence[Sequence[float]],
                           loss_rates: Sequence[float],
                           initial: Optional[Sequence[float]] = None
                           ) -> List[float]:
    """Exact ``[q_1 .. q_n]`` of ``E_{m,1}`` under Markov loss.

    Parameters
    ----------
    n:
        Block size including ``P_sign`` (assumed received; its slot
        still advances the channel state).
    m:
        Offset reach: the scheme is EMSS ``E_{m,1}``.
    transition:
        Row-stochastic channel transition matrix.
    loss_rates:
        Per-channel-state loss probability.
    initial:
        Distribution over channel states at the first packet; defaults
        to the stationary distribution.

    Returns
    -------
    list of float
        ``q_i = P{verifiable | received}`` per packet
        (signature-rooted indexing).
    """
    if n < 1:
        raise AnalysisError(f"block size must be >= 1, got {n}")
    if m < 1:
        raise AnalysisError(f"offset reach must be >= 1, got {m}")
    matrix = np.asarray(transition, dtype=float)
    rates = np.asarray(loss_rates, dtype=float)
    states = rates.shape[0]
    if matrix.shape != (states, states):
        raise AnalysisError("transition matrix shape mismatch")
    if np.any(rates < 0) or np.any(rates > 1):
        raise AnalysisError("loss rates must lie in [0, 1]")
    if np.any(matrix < 0) or np.any(np.abs(matrix.sum(axis=1) - 1) > 1e-9):
        raise AnalysisError("transition matrix must be row-stochastic")
    flow = _stationary(matrix)[:, None] * matrix
    if np.any(np.abs(flow - flow.T) > 1e-10):
        raise AnalysisError(
            "transition matrix fails detailed balance: the forward walk "
            "is exact only for reversible chains")
    if initial is None:
        channel = _stationary(matrix)
    else:
        channel = np.asarray(initial, dtype=float)
        if channel.shape != (states,) or abs(channel.sum() - 1) > 1e-9:
            raise AnalysisError("initial distribution malformed")
    # joint[s, r] = P{channel state s, unverifiable run r}, r in 0..m
    # (r = m absorbing).  P_sign occupies the first slot: received by
    # assumption, so the run starts at 0; the channel still steps.
    joint = np.zeros((states, m + 1))
    joint[:, 0] = channel
    joint = np.einsum("sr,st->tr", joint, matrix)
    profile = [1.0]
    for _ in range(2, n + 1):
        receive = 1.0 - rates  # per-state receipt probability
        p_received = float((joint.sum(axis=1) * receive).sum())
        p_verifiable = float((joint[:, :m].sum(axis=1) * receive).sum())
        if p_received > 0:
            profile.append(p_verifiable / p_received)
        else:
            # Receipt has probability zero (all-loss states): fall back
            # to the unweighted run distribution, matching the iid
            # convention "could this packet verify if it arrived".
            profile.append(float(joint[:, :m].sum()))
        # Advance the run component, then the channel component.
        advanced = np.zeros_like(joint)
        for r in range(m):
            advanced[:, 0] += joint[:, r] * receive       # verified: reset
            advanced[:, r + 1] += joint[:, r] * rates     # lost: extend
        advanced[:, m] += joint[:, m]                     # absorbing
        joint = np.einsum("sr,st->tr", advanced, matrix)
    return profile


def markov_chain_q_min(n: int, m: int,
                       transition: Sequence[Sequence[float]],
                       loss_rates: Sequence[float]) -> float:
    """Exact ``q_min`` of ``E_{m,1}`` under Markov loss."""
    return min(markov_chain_q_profile(n, m, transition, loss_rates))


def gilbert_elliott_q_min(n: int, m: int, loss_rate: float,
                          mean_burst: float) -> float:
    """Exact ``q_min`` of ``E_{m,1}`` on a Gilbert–Elliott channel.

    Convenience wrapper: parameterize by mean loss rate and mean burst
    length, as the burst experiments do.
    """
    model = GilbertElliottLoss.from_rate_and_burst(loss_rate, mean_burst)
    transition = [
        [1.0 - model.p_good_to_bad, model.p_good_to_bad],
        [model.p_bad_to_good, 1.0 - model.p_bad_to_good],
    ]
    return markov_chain_q_min(n, m, transition, [0.0, 1.0])


class TrustingChainReceiver:
    """The hash-chain receiver for loss-only channels, kept as an oracle.

    The first delivery of a sequence number claims its slot; a later
    one is ignored.  A packet that fails its signature or mismatches
    its trusted hash flags the slot forged.  One unverifiable packet
    per slot waits in the message buffer, capped at ``max_buffered``
    by evicting the lowest buffered sequence.  Buffer peaks,
    ``evicted``, ``forged`` and :meth:`accepted_digests` follow
    :class:`~repro.simulation.receiver.ChainReceiver`, and so do
    ``edges``: a signed packet passes ``edges.signed`` when given, a
    packet matches its trusted token when it is the packet's hash or
    ``edges.matches`` says so, and a verified packet trusts what
    ``edges.vouches`` names.
    """

    def __init__(self, signer: Signer,
                 hash_function: HashFunction = sha256,
                 max_buffered: Optional[int] = None,
                 edges: Optional[ChainEdges] = None) -> None:
        self._signer = signer
        self._edges = edges if edges is not None else ChainEdges()
        self._hash = hash_function
        self._max_buffered = max_buffered
        #: seq -> hash trusted for it, first one wins.
        self.trusted: Dict[int, bytes] = {}
        self._buffered: Dict[int, Tuple[Packet, bytes]] = {}
        self._accepted: Dict[int, bytes] = {}
        self.outcomes: Dict[int, PacketOutcome] = {}
        self.evicted = 0
        self.message_buffer_peak = 0
        self.hash_buffer_peak = 0

    def receive(self, packet: Packet, arrival_time: float) -> PacketOutcome:
        """Process one arriving packet; returns its (live) outcome record."""
        outcome = self.outcomes.get(packet.seq)
        if outcome is not None:
            return outcome
        outcome = self.outcomes[packet.seq] = PacketOutcome(packet.seq,
                                                            arrival_time)
        auth = packet.auth_bytes()
        digest = self._hash.digest(auth)
        if packet.signature is not None:
            signed = self._edges.signed
            if (self._signer.verify(auth, packet.signature)
                    if signed is None else signed(packet)):
                self._verify(packet, arrival_time, digest)
            else:
                outcome.forged = True
            return outcome
        expected = self.trusted.get(packet.seq)
        if expected is None:
            self._buffered[packet.seq] = (packet, digest)
            if (self._max_buffered is not None
                    and len(self._buffered) > self._max_buffered):
                del self._buffered[min(self._buffered)]
                self.evicted += 1
            self.message_buffer_peak = max(self.message_buffer_peak,
                                           len(self._buffered))
        elif expected == digest or self._edges.matches(packet, expected):
            self._verify(packet, arrival_time, digest)
        else:
            outcome.forged = True
        return outcome

    def _verify(self, packet: Packet, now: float, digest: bytes) -> None:
        """Trust ``packet``, absorb its hashes, release what they cover."""
        worklist = [(packet, digest)]
        while worklist:
            current, current_digest = worklist.pop()
            outcome = self.outcomes[current.seq]
            outcome.verified = True
            outcome.verified_time = now
            self._accepted[current.seq] = current_digest
            for target, carried_digest in self._edges.vouches(current):
                if self.trusted.setdefault(target,
                                            carried_digest) != carried_digest:
                    continue  # the first trusted hash stands
                held = self._buffered.pop(target, None)
                if held is None:
                    continue
                if held[1] == carried_digest or self._edges.matches(
                        held[0], carried_digest):
                    worklist.append(held)
                else:
                    self.outcomes[target].forged = True
            pending = sum(1 for seq in self.trusted
                          if seq not in self.outcomes)
            self.hash_buffer_peak = max(self.hash_buffer_peak, pending)

    def verdict(self, seq: int) -> Optional[PacketOutcome]:
        return self.outcomes.get(seq)

    def accepted_digests(self) -> Dict[int, bytes]:
        return self._accepted

    @property
    def forged(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.forged)


def reference_block(scheme: Scheme, payloads, signer: Signer,
                    hash_function: HashFunction = sha256,
                    block_id: int = 0, base_seq: int = 1) -> List[Packet]:
    """The per-block builder: rebuild, validate and sort every call."""
    graph = scheme.build_graph(len(payloads))
    graph.validate()
    order = graph.topological_order()
    hashes: Dict[int, bytes] = {}
    packets: Dict[int, Packet] = {}
    for vertex in reversed(order):
        carried = tuple(
            (base_seq + target - 1, hashes[target])
            for target in graph.successors(vertex)
        )
        packet = Packet(
            seq=base_seq + vertex - 1,
            block_id=block_id,
            payload=bytes(payloads[vertex - 1]),
            carried=carried,
        )
        if vertex == graph.root:
            packet = Packet(
                seq=packet.seq,
                block_id=packet.block_id,
                payload=packet.payload,
                carried=packet.carried,
                signature=signer.sign(packet.auth_bytes()),
            )
        hashes[vertex] = hash_function.digest(packet.auth_bytes())
        packets[vertex] = packet
    return [packets[v] for v in range(1, len(payloads) + 1)]
