"""SAIDA-style erasure-coded authentication (extension baseline).

A contemporaneous alternative to hash chaining (Park, Chong & Siegel,
2002): instead of scattering hashes through the packet stream, compute
the block's full authentication information — every payload hash plus
one signature over them — and spread it across the block's packets
with an ``(n, k)`` Reed–Solomon erasure code.  *Any* ``k`` received
packets reconstruct the blob; each received payload is then checked
against its hash.

Properties that make it an illuminating contrast to the paper's
dependence-graph schemes:

* ``q_i`` is identical for every packet (zero variance — compare the
  Sec. 3 variance discussion): verifiability depends only on *how
  many* packets arrive, not *which*;
* burst loss at a given mean rate is no worse than iid loss — the
  code only counts erasures;
* the threshold ``k`` trades overhead (shares shrink as ``k`` grows)
  against loss tolerance (``n − k`` losses survivable) as a cliff, not
  a slope.

There is no dependence-graph: packets carry shares, not hashes, so
:meth:`SaidaScheme.build_graph` returns ``None`` and analysis lives in
:mod:`repro.analysis.saida`.
"""

from __future__ import annotations

import itertools
import math
import struct
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.core.graph import DependenceGraph
from repro.core.metrics import GraphMetrics
from repro.crypto.hashing import HashFunction, sha256
from repro.crypto.reed_solomon import rs_decode, rs_encode
from repro.crypto.signatures import Signer
from repro.exceptions import SchemeParameterError
from repro.packets import Packet
from repro.schemes.base import PacketOutcome, Scheme, Trial, Verifier

__all__ = ["SaidaScheme", "SaidaReceiver"]

_EXTRA = struct.Struct(">IIII")  # share index, k, n, signature length


def _blob(block_id: int, hashes: Sequence[bytes], signature: bytes) -> bytes:
    parts = [struct.pack(">II", block_id, len(hashes))]
    parts.extend(hashes)
    parts.append(signature)
    return b"".join(parts)


def _signed_portion(block_id: int, hashes: Sequence[bytes]) -> bytes:
    return struct.pack(">II", block_id, len(hashes)) + b"".join(hashes)


class SaidaScheme(Scheme):
    """``(n, k)`` erasure-coded signature amortization.

    Parameters
    ----------
    k_fraction:
        Reconstruction threshold as a fraction of the block: the block
        survives any loss rate below ``1 − k_fraction``.
    hash_function:
        Hash for per-payload digests.
    """

    def __init__(self, k_fraction: float = 0.5,
                 hash_function: HashFunction = sha256) -> None:
        if not 0.0 < k_fraction <= 1.0:
            raise SchemeParameterError(
                f"k fraction must be in (0, 1], got {k_fraction}"
            )
        self.k_fraction = k_fraction
        self.hash_function = hash_function

    @property
    def name(self) -> str:
        return f"saida(k={self.k_fraction:g})"

    def threshold(self, n: int) -> int:
        """The reconstruction threshold ``k`` for a block of ``n``."""
        return max(1, math.ceil(self.k_fraction * n))

    def build_graph(self, n: int) -> Optional[DependenceGraph]:
        """Erasure-coded: there is no hash-dependence structure."""
        if n < 1:
            raise SchemeParameterError(f"block needs >= 1 packet, got {n}")
        return None

    def q_profile(self, n: int, p: float, **delay: float) -> Dict[int, float]:
        """The flat binomial tail: ``k − 1`` of the other ``n − 1`` arrive."""
        # The analysis layer builds on schemes: imported at call time.
        from repro.analysis import saida as analysis

        return dict(enumerate(analysis.q_profile(n, self.threshold(n), p),
                              start=1))

    # ------------------------------------------------------------------

    def make_block(self, payloads: Sequence[bytes], signer: Signer,
                   hash_function: Optional[HashFunction] = None,
                   block_id: int = 0, base_seq: int = 1) -> List[Packet]:
        """Hash every payload, sign the list, erasure-code, attach shares."""
        n = len(payloads)
        if n < 1:
            raise SchemeParameterError("empty block")
        if n > 255:
            raise SchemeParameterError("GF(256) limits blocks to 255 packets")
        hash_function = hash_function or self.hash_function
        k = self.threshold(n)
        hashes = [hash_function.digest(Packet(
            base_seq + index, block_id, bytes(payload)).auth_bytes())
            for index, payload in enumerate(payloads)]
        signature = signer.sign(_signed_portion(block_id, hashes))
        shares = rs_encode(_blob(block_id, hashes, signature), n, k)
        packets = []
        for index, payload in enumerate(payloads):
            extra = _EXTRA.pack(index, k, n, len(signature)) + shares[index]
            packets.append(Packet(
                seq=base_seq + index, block_id=block_id,
                payload=bytes(payload), extra=extra,
            ))
        return packets

    def new_trial(self, signer: Signer, block_size: int, blocks: int, *,
                  hash_function: HashFunction = sha256,
                  t_transmit: float = 0.01,
                  seed: Optional[int] = None) -> Trial:
        """Erasure-coded blocks, verified by a :class:`SaidaReceiver`."""
        packets, positions = self._send_blocks(signer, block_size, blocks,
                                               hash_function, t_transmit)
        return Trial(packets, positions,
                     partial(SaidaReceiver, signer, hash_function))

    def metrics(self, n: int, l_sign: int = 128, l_hash: int = 16,
                sign_copies: int = 1) -> GraphMetrics:
        """Analytic costs: one blob share per packet.

        ``sign_copies`` does not apply (the signature rides inside the
        erasure-coded blob).  Deterministic delay: the first packet
        waits for the ``k``-th arrival.
        """
        if n < 1:
            raise SchemeParameterError(f"block needs >= 1 packet, got {n}")
        k = self.threshold(n)
        blob = 8 + n * l_hash + l_sign  # header + hashes + signature
        share = math.ceil((blob + 4) / k)
        return GraphMetrics(
            n=n,
            edge_count=0,
            mean_hashes=0.0,
            overhead_bytes=float(share + _EXTRA.size),
            message_buffer=k - 1,
            hash_buffer=0,
            delay_slots=k - 1,
        )


#: Reconstruction attempts allowed per block, as a multiple of ``n``.
#: The subset search below is combinatorial in the number of polluted
#: shares, so without a budget a polluted block could be turned into
#: unbounded decode/signature checks; past the budget the block is
#: declared failed.  ``8n`` covers every ``k``-subset drawn from the
#: first ``k + 3`` shares at conformance block sizes — i.e. any three
#: polluted shares are survivable — while keeping the worst case a
#: small constant number of HMAC checks per block.
_MAX_ATTEMPT_FACTOR = 8


class SaidaReceiver(Verifier):
    """Receiver: collect shares, reconstruct, verify, release.

    Feed arriving packets to :meth:`receive`; per-seq verdicts appear
    in :attr:`verified` (True/False) once decidable.  Packets of a
    block arriving after reconstruction verify immediately.  This is
    SAIDA's trial :class:`~repro.schemes.base.Verifier`.

    The receiver is defensive against active attackers: the first
    share per ``(block, index)`` wins (duplicates counted in
    :attr:`duplicate_shares`), shares whose declared ``(k, n)`` shape
    or index is invalid or disagrees with the block's first share are
    dropped (:attr:`rejected_shares`), verdicts are final (a forged
    packet cannot overwrite a ``True``), and when reconstruction fails
    it searches ``k``-subsets of the shares in hand (growing-window
    order, failed subsets memoized) — polluted shares cannot poison a
    block while ``k`` clean ones arrived early enough — under a
    per-block attempt budget so pollution cannot become a CPU DoS.
    """

    def __init__(self, signer: Signer,
                 hash_function: HashFunction = sha256) -> None:
        super().__init__(hash_function)
        self._signer = signer
        self._pending: Dict[int, Dict[int, Packet]] = {}
        self._shapes: Dict[int, tuple] = {}
        self._attempts: Dict[int, int] = {}
        self._tried: Dict[int, set] = {}
        self._hash_lists: Dict[int, List[bytes]] = {}
        self._failed_blocks: set = set()
        self.verified: Dict[int, bool] = {}
        self._arrivals: Dict[int, float] = {}
        self._accepted: Dict[int, Packet] = {}
        self.duplicate_shares = 0
        self.rejected_shares = 0
        self._malformed = 0

    # ------------------------------------------------------------------

    def _decode_attempt(self, block_id: int, shares: Sequence,
                        k: int, n: int) -> Optional[List[bytes]]:
        """One reconstruction attempt; the block's hashes, or ``None``."""
        try:
            blob = rs_decode(shares, k)
            blob_block, count = struct.unpack_from(">II", blob, 0)
            # Shape check *before* slicing: a garbage count from a
            # polluted decode must not drive a huge allocation.
            if blob_block != block_id or count != n:
                return None
            size = self._hash.digest_size
            offset = 8
            hashes = [blob[offset + i * size: offset + (i + 1) * size]
                      for i in range(count)]
            signature = blob[offset + count * size:]
        except Exception:
            return None
        if not self._signer.verify(_signed_portion(block_id, hashes),
                                   signature):
            return None
        return hashes

    def _candidate_subsets(self, items: Sequence, k: int):
        """``k``-subsets of ``items`` in growing-window order.

        Window ``w`` yields every subset whose last element is
        ``items[w - 1]``, so each subset appears exactly once and the
        cheap candidates (the first ``k`` shares, then subsets dodging
        one polluted share, then two, ...) come first.  Unlike a
        leave-one-out sweep this reaches *every* combination given
        budget, so any number of polluted shares is survivable as long
        as ``k`` clean ones arrived early enough in index order.
        """
        for window in range(k, len(items) + 1):
            last = items[window - 1]
            for head in itertools.combinations(items[:window - 1], k - 1):
                yield list(head) + [last]

    def _try_reconstruct(self, block_id: int, k: int, n: int) -> bool:
        shares_map = self._pending.get(block_id, {})
        if len(shares_map) < k:
            return False
        items = [(index, packet.extra[_EXTRA.size:])
                 for index, packet in sorted(shares_map.items())]
        budget = _MAX_ATTEMPT_FACTOR * n
        tried = self._tried.setdefault(block_id, set())
        exhausted = False
        for shares in self._candidate_subsets(items, k):
            attempts = self._attempts.get(block_id, 0)
            if attempts >= budget:
                self._failed_blocks.add(block_id)
                exhausted = True
                break
            key = tuple(index for index, _ in shares)
            # The budget is cumulative across arrivals; remembering
            # failed subsets keeps later arrivals from burning it on
            # combinations that already lost.
            if key in tried:
                continue
            tried.add(key)
            self._attempts[block_id] = attempts + 1
            hashes = self._decode_attempt(block_id, shares, k, n)
            if hashes is not None:
                self._hash_lists[block_id] = hashes
                return True
        if not exhausted and len(shares_map) >= n:
            # Every share arrived and no subset verifies: conclusive.
            self._failed_blocks.add(block_id)
        return False

    def _check_payload(self, packet: Packet, base_index: int) -> bool:
        hashes = self._hash_lists[packet.block_id]
        if not 0 <= base_index < len(hashes):
            return False
        return self.content_digest(packet) == hashes[base_index]

    def _finish_block(self, block_id: int) -> None:
        self._shapes.pop(block_id, None)
        self._attempts.pop(block_id, None)
        self._tried.pop(block_id, None)

    # ------------------------------------------------------------------

    def receive(self, packet: Packet, arrival_time: float = 0.0) -> None:
        """Process one arriving SAIDA packet."""
        self._arrivals.setdefault(packet.seq, arrival_time)
        self._take(packet)
        self.message_buffer_peak = max(self.message_buffer_peak,
                                       self.pending_count)

    def _settle(self, packet: Packet, ok: bool) -> None:
        self.verified[packet.seq] = ok
        if ok:
            self._accepted[packet.seq] = packet
        else:
            self._accepted.pop(packet.seq, None)

    def _take(self, packet: Packet) -> None:
        try:
            index, k, n, signature_length = _EXTRA.unpack_from(
                packet.extra, 0)
        except struct.error:
            # An unparsable share header counts as a forgery.
            self._malformed += 1
            return
        if packet.seq in self.verified:
            # Verdicts are final: replays and seq-colliding forgeries
            # cannot overwrite an earlier decision.
            self.duplicate_shares += 1
            return
        block_id = packet.block_id
        if block_id in self._hash_lists:
            self._settle(packet, self._check_payload(packet, index))
            return
        if block_id in self._failed_blocks:
            self.verified[packet.seq] = False
            return
        shape = self._shapes.get(block_id)
        if shape is None:
            if not (1 <= k <= n <= 255 and 0 <= index < n):
                self.rejected_shares += 1
                return
            self._shapes[block_id] = (k, n)
        else:
            if (k, n) != shape or not 0 <= index < n:
                self.rejected_shares += 1
                return
        shares_map = self._pending.setdefault(block_id, {})
        if index in shares_map:
            self.duplicate_shares += 1
            return
        shares_map[index] = packet
        if self._try_reconstruct(block_id, k, n):
            for held in self._pending.pop(block_id).values():
                held_index, _, _, _ = _EXTRA.unpack_from(held.extra, 0)
                self._settle(held, self._check_payload(held, held_index))
            self._finish_block(block_id)
        elif block_id in self._failed_blocks:
            for held in self._pending.pop(block_id, {}).values():
                self._settle(held, False)
            self._finish_block(block_id)

    # ------------------------------------------------------------------

    @property
    def forged_rejected(self) -> int:
        """Shares of an invalid shape, plus unparsable share headers."""
        return self.rejected_shares + self._malformed

    @property
    def replays_dropped(self) -> int:
        """Duplicate shares and re-received sequence numbers."""
        return self.duplicate_shares

    def verdict(self, seq: int) -> Optional[PacketOutcome]:
        """Verification is not timed: ``verified_time`` stays ``None``."""
        arrival = self._arrivals.get(seq)
        if arrival is None:
            return None
        return PacketOutcome(seq, arrival, bool(self.verified.get(seq)))

    def accepted_digests(self) -> Dict[int, bytes]:
        return {seq: self.content_digest(packet)
                for seq, packet in self._accepted.items()}

    def content_digest(self, packet: Packet) -> bytes:
        """Digest of the payload under its sequence number.

        That is what the signed hash list holds, so a payload verifies
        only under the seq it was sent with; a packet whose share was
        tampered with still verifies through the other shares.
        """
        return self._hash.digest(
            Packet(packet.seq, packet.block_id, packet.payload).auth_bytes())

    @property
    def pending_count(self) -> int:
        """Packets buffered awaiting reconstruction."""
        return sum(len(v) for v in self._pending.values())

    def verified_count(self) -> int:
        """Packets verified so far."""
        return sum(1 for ok in self.verified.values() if ok)
