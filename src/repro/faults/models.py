"""Concrete adversarial fault models.

Each model owns a private :mod:`random` RNG seeded at construction and
re-keyed through :meth:`FaultModel.reseed` — the exact idiom of
:class:`~repro.network.loss.LossModel` — so an attacked trial's fault
stream depends only on the seed derived from the trial's *global*
index, never on which worker runs it.

A model participates in an attack through four hooks, all optional
(the base class no-ops them):

``corrupt(wire)``
    Return tampered bytes for this delivery, or ``None`` to pass it
    through.  Called once per delivery in send order, like
    :meth:`~repro.network.loss.LossModel.is_lost`; models that corrupt
    with probability ``rate`` must expose it as :attr:`corruption_rate`
    so the analysis can compute the effective loss rate.
``forge(packet)``
    ``(arrival_offset, wire)`` pairs of injected packets crafted from
    an observed genuine packet (the Dolev-Yao eavesdropper reacts to
    traffic it sees, so offsets are strictly positive: the genuine
    copy always lands first).
``replay(wire)``
    Positive arrival offsets at which to duplicate the delivered bytes.
``jitter()``
    Extra non-negative delay for this delivery (reordering pressure).
"""

from __future__ import annotations

import random
from abc import ABC
from dataclasses import replace
from typing import List, Optional, Tuple

from repro.crypto.batch import BatchAttachment, encode_batch_attachment
from repro.crypto.hashing import HashFunction, sha256
from repro.crypto.merkle import MerkleTree
from repro.exceptions import SimulationError
from repro.packets import WIRE_HEADER_SIZE, Packet

__all__ = [
    "FaultModel",
    "BitFlipCorruption",
    "TruncationCorruption",
    "ForgedInjection",
    "ReplayDuplication",
    "ReorderJitter",
    "BatchRootForgery",
    "BootstrapBurstForgery",
]

#: Sequence-number displacement for non-colliding forged packets: far
#: above any simulated stream, below the 32-bit wire cap.
FRESH_SEQ_OFFSET = 1 << 20


def _check_rate(rate: float, what: str) -> float:
    if not 0.0 <= rate <= 1.0:
        raise SimulationError(f"{what} must be in [0, 1], got {rate}")
    return rate


class FaultModel(ABC):
    """One adversarial action stream; see the module docstring."""

    _rng: random.Random
    #: RNG key; ``None`` (unseeded) until a constructor or
    #: :meth:`reseed` sets it.
    _seed: Optional[int] = None

    def reset(self) -> None:
        """Return to the initial RNG state (new trial)."""
        self._rng = random.Random(self._seed)

    def reseed(self, seed: Optional[int]) -> None:
        """Re-key the model's private RNG, then :meth:`reset`.

        Mirrors :meth:`repro.network.loss.LossModel.reseed`: attacked
        Monte-Carlo trial runners pin per-trial fault randomness with
        it, and the serve layer pins each receiver's reused plan per
        cell.
        """
        self._seed = seed
        self.reset()

    # -- hooks, all optional ------------------------------------------------

    def corrupt(self, wire: bytes) -> Optional[bytes]:
        """Tampered bytes for this delivery, or ``None`` to pass through."""
        return None

    def forge(self, packet: Packet) -> List[Tuple[float, bytes]]:
        """``(arrival_offset, wire)`` pairs of packets to inject."""
        return []

    def replay(self, wire: bytes) -> List[float]:
        """Positive arrival offsets at which to duplicate ``wire``."""
        return []

    def jitter(self) -> float:
        """Extra non-negative delay for this delivery."""
        return 0.0

    @property
    def corruption_rate(self) -> float:
        """Per-delivery probability that :meth:`corrupt` tampers.

        Drives the effective-loss model ``p_eff = 1 - (1-p)(1-c)``;
        models that never corrupt report 0.
        """
        return 0.0


class BitFlipCorruption(FaultModel):
    """Flip random bits in the authenticated region of the wire bytes.

    Flips land at byte offsets ``>= WIRE_HEADER_SIZE`` — the region
    covered by :meth:`~repro.packets.Packet.auth_bytes` plus the
    signature blob — so a corrupted packet either fails to decode or
    decodes to content that can never verify.  (Flips in the
    *unauthenticated* header would produce a packet that still
    verifies, which is delay tampering, not corruption — model that
    with :class:`ReorderJitter` instead.)
    """

    def __init__(self, rate: float, max_flips: int = 3,
                 seed: Optional[int] = None) -> None:
        self.rate = _check_rate(rate, "bit-flip rate")
        if max_flips < 1:
            raise SimulationError(f"max_flips must be >= 1, got {max_flips}")
        self.max_flips = max_flips
        self._seed = seed
        self.reset()

    def corrupt(self, wire: bytes) -> Optional[bytes]:
        if self._rng.random() >= self.rate:
            return None
        span = len(wire) - WIRE_HEADER_SIZE
        if span <= 0:
            return None  # header-only buffer: nothing authenticated to flip
        mutated = bytearray(wire)
        for _ in range(self._rng.randint(1, self.max_flips)):
            bit = self._rng.randrange(span * 8)
            mutated[WIRE_HEADER_SIZE + bit // 8] ^= 1 << (bit % 8)
        return bytes(mutated)

    @property
    def corruption_rate(self) -> float:
        return self.rate


class TruncationCorruption(FaultModel):
    """Cut a delivery short at a random point.

    Any strict prefix of a canonical wire buffer is undecodable (some
    declared length always runs past the cut), so truncated packets
    are counted-and-discarded — behaviourally a loss.
    """

    def __init__(self, rate: float, seed: Optional[int] = None) -> None:
        self.rate = _check_rate(rate, "truncation rate")
        self._seed = seed
        self.reset()

    def corrupt(self, wire: bytes) -> Optional[bytes]:
        if self._rng.random() >= self.rate:
            return None
        return wire[:self._rng.randrange(len(wire))] if wire else None

    @property
    def corruption_rate(self) -> float:
        return self.rate


class ForgedInjection(FaultModel):
    """Inject syntactically valid packets with wrong content.

    The forged packet clones an observed genuine packet's framing
    (sequence, block, carried hashes, extra, signature bytes) but
    swaps the payload, so it decodes cleanly and presents plausible
    authentication data that can never verify — hashes and signatures
    cover the payload it no longer has.  With ``collide=True`` the
    forgery reuses the genuine sequence number (slot-stealing /
    trust-pollution pressure); otherwise it claims a fresh sequence
    far outside the stream (blind spam).  Injections arrive a strictly
    positive ``epsilon``-scaled offset after the genuine delivery: the
    eavesdropper reacts to traffic, it does not precede it.
    """

    def __init__(self, rate: float, collide: bool = True,
                 epsilon: float = 1e-6,
                 seed: Optional[int] = None) -> None:
        self.rate = _check_rate(rate, "injection rate")
        if epsilon <= 0:
            raise SimulationError(f"epsilon must be > 0, got {epsilon}")
        self.collide = collide
        self.epsilon = epsilon
        self._seed = seed
        self.reset()

    def forge(self, packet: Packet) -> List[Tuple[float, bytes]]:
        if self._rng.random() >= self.rate:
            return []
        seq = packet.seq if self.collide else packet.seq + FRESH_SEQ_OFFSET
        payload = b"forged:" + self._rng.getrandbits(64).to_bytes(8, "big")
        forged = replace(packet, seq=seq, payload=payload)
        offset = self.epsilon * (1.0 + self._rng.random())
        return [(offset, forged.to_wire())]


class ReplayDuplication(FaultModel):
    """Re-deliver a copy of the observed bytes a short while later."""

    def __init__(self, rate: float, min_delay: float = 1e-3,
                 max_delay: float = 5e-2, copies: int = 1,
                 seed: Optional[int] = None) -> None:
        self.rate = _check_rate(rate, "replay rate")
        if not 0 < min_delay <= max_delay:
            raise SimulationError(
                f"need 0 < min_delay <= max_delay, got "
                f"[{min_delay}, {max_delay}]")
        if copies < 1:
            raise SimulationError(f"copies must be >= 1, got {copies}")
        self.min_delay = min_delay
        self.max_delay = max_delay
        self.copies = copies
        self._seed = seed
        self.reset()

    def replay(self, wire: bytes) -> List[float]:
        if self._rng.random() >= self.rate:
            return []
        return [self._rng.uniform(self.min_delay, self.max_delay)
                for _ in range(self.copies)]


class BatchRootForgery(FaultModel):
    """Forge a batch-signed packet with a perfectly consistent proof.

    The strongest attack the batch construction admits short of
    breaking the signature itself: the forged copy swaps the payload
    of an observed signature packet, then carries a *structurally
    valid* batch attachment built over the forged packet's own
    authentication bytes — the strict decode succeeds and the Merkle
    walk reproduces the attacker's root exactly.  The only check left
    standing between the forgery and acceptance is the root-signature
    verification, which must fail because the attacker cannot sign the
    domain-separated root.  A receiver that skipped or cached that
    check wrongly would accept, and the conformance suite's
    ``forged_accepted == 0`` gate would trip.
    """

    def __init__(self, rate: float, batch_size: int = 8,
                 signature_size: int = 128, epsilon: float = 1e-6,
                 hash_function: HashFunction = sha256,
                 seed: Optional[int] = None) -> None:
        self.rate = _check_rate(rate, "batch-root forgery rate")
        if batch_size < 1:
            raise SimulationError(
                f"batch_size must be >= 1, got {batch_size}")
        if signature_size < 1:
            raise SimulationError(
                f"signature_size must be >= 1, got {signature_size}")
        if epsilon <= 0:
            raise SimulationError(f"epsilon must be > 0, got {epsilon}")
        self.batch_size = batch_size
        self.signature_size = signature_size
        self.epsilon = epsilon
        self.hash_function = hash_function
        self._seed = seed
        self.reset()

    def forge(self, packet: Packet) -> List[Tuple[float, bytes]]:
        if packet.signature is None:
            return []  # only signature packets carry a root to forge
        if self._rng.random() >= self.rate:
            return []
        payload = (b"forged-root:"
                   + self._rng.getrandbits(64).to_bytes(8, "big"))
        forged = replace(packet, payload=payload, signature=b"")
        leaf = forged.auth_bytes()
        position = self._rng.randrange(self.batch_size)
        leaves = [
            self._rng.getrandbits(256).to_bytes(32, "big")
            for _ in range(self.batch_size - 1)
        ]
        leaves.insert(position, leaf)
        tree = MerkleTree(leaves, self.hash_function)
        fake_signature = bytes(self._rng.getrandbits(8)
                               for _ in range(self.signature_size))
        attachment = encode_batch_attachment(BatchAttachment(
            leaf_index=position, leaf_count=self.batch_size,
            proof=tree.proof(position), root_signature=fake_signature))
        forged = replace(forged, signature=attachment)
        offset = self.epsilon * (1.0 + self._rng.random())
        return [(offset, forged.to_wire())]


class BootstrapBurstForgery(FaultModel):
    """Forged-injection burst timed at a receiver's bootstrap window.

    The churn-storm adversary races a late joiner's first deliveries:
    before the receiver has anchored any trust state (a verified
    signed root, an authenticated TESLA key), forged packets are
    cheapest to slip in.  The first ``window`` genuine deliveries
    observed after a :meth:`~FaultModel.reset` are forged with the
    high ``burst_rate``; afterwards the model settles to ``tail_rate``
    (0 by default — a pure transition attack).

    Placement comes entirely from the reseed discipline: the serve
    layer reseeds plans per (receiver, block), so a plan armed on a
    joiner's join block bursts exactly inside its bootstrap window;
    the conformance harness reseeds per trial, so *every* trial opens
    with a bootstrap-shaped burst — each attacked block is a fresh
    join race.  Forgeries clone the observed packet's framing and
    collide on its sequence number (slot-stealing pressure), exactly
    like :class:`ForgedInjection`, and never corrupt — the
    ``corruption_rate`` stays 0 so the effective-loss model is
    untouched.
    """

    def __init__(self, burst_rate: float = 0.5, window: int = 8,
                 tail_rate: float = 0.0, collide: bool = True,
                 epsilon: float = 1e-6, seed: Optional[int] = None) -> None:
        self.burst_rate = _check_rate(burst_rate, "burst rate")
        self.tail_rate = _check_rate(tail_rate, "tail rate")
        if window < 1:
            raise SimulationError(f"window must be >= 1, got {window}")
        if epsilon <= 0:
            raise SimulationError(f"epsilon must be > 0, got {epsilon}")
        self.window = window
        self.collide = collide
        self.epsilon = epsilon
        self._seed = seed
        self.reset()

    def reset(self) -> None:
        """Rewind the RNG *and* reopen the bootstrap window."""
        super().reset()
        self._observed = 0

    def forge(self, packet: Packet) -> List[Tuple[float, bytes]]:
        rate = (self.burst_rate if self._observed < self.window
                else self.tail_rate)
        self._observed += 1
        if self._rng.random() >= rate:
            return []
        seq = packet.seq if self.collide else packet.seq + FRESH_SEQ_OFFSET
        payload = b"storm:" + self._rng.getrandbits(64).to_bytes(8, "big")
        forged = replace(packet, seq=seq, payload=payload)
        offset = self.epsilon * (1.0 + self._rng.random())
        return [(offset, forged.to_wire())]


class ReorderJitter(FaultModel):
    """Hold every delivery back by a uniform random extra delay.

    Arrival order is perturbed without touching content — the paper's
    "reorder" capability in isolation.  Schemes whose analysis assumes
    in-order or timely arrival (TESLA's Eq. 6 delay term) see their
    completeness model shift under this fault; soundness must hold
    regardless.
    """

    def __init__(self, width: float, seed: Optional[int] = None) -> None:
        if width < 0:
            raise SimulationError(f"jitter width must be >= 0, got {width}")
        self.width = width
        self._seed = seed
        self.reset()

    def jitter(self) -> float:
        return self._rng.random() * self.width
