"""Stream sender: blocks, sequence numbers and send timing.

Chops an application payload stream into signature-amortization blocks
of ``block_size`` packets, packetizes each block with the scheme under
test, and stamps send times at one packet per ``t_transmit`` — the
clock that the paper's Eq. 4 measures receiver delay in.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.crypto.hashing import HashFunction, sha256
from repro.crypto.signatures import Signer
from repro.exceptions import SimulationError
from repro.packets import Packet
from repro.schemes.base import Block, Scheme

__all__ = ["StreamSender", "make_payloads", "replicate_signature_packets"]


def replicate_signature_packets(packets: Sequence[Packet],
                                copies: int) -> List[Packet]:
    """Repeat each signature packet ``copies`` times in the send order.

    The paper assumes ``P_sign`` "can always be received ... by sending
    it multiple times"; this helper implements that literally.  Extra
    copies keep the original sequence number (the receiver deduplicates)
    and follow the original immediately in send order.

    Parameters
    ----------
    packets:
        One block (or stream) in send order.
    copies:
        Total transmissions of each signature packet (``1`` = no
        replication).
    """
    if copies < 1:
        raise SimulationError(f"copies must be >= 1, got {copies}")
    replicated: List[Packet] = []
    for packet in packets:
        replicated.append(packet)
        if packet.is_signature_packet:
            replicated.extend([packet] * (copies - 1))
    return replicated


def make_payloads(count: int, size: int = 32, tag: bytes = b"pkt") -> List[bytes]:
    """Deterministic distinct payloads for simulations and tests.

    Each argument set is formatted once; every call returns a fresh
    list, which the caller may change.
    """
    return list(_payloads(count, size, tag))


@lru_cache(maxsize=32)
def _payloads(count: int, size: int, tag: bytes) -> Tuple[bytes, ...]:
    if count < 0 or size < 8:
        raise SimulationError("need count >= 0 and size >= 8")
    payloads = []
    for index in range(count):
        head = b"%s-%08d-" % (tag, index)
        payloads.append((head * (size // len(head) + 1))[:size])
    return tuple(payloads)


class StreamSender:
    """Sender side of a hash-chained multicast session.

    Parameters
    ----------
    scheme:
        Any block-based scheme (hash-chained or individually
        verifiable); TESLA has its own sender.
    signer:
        Signs each block's root packet.
    block_size:
        Packets per block (``n`` in the analysis).
    t_transmit:
        Seconds between consecutive packet transmissions.
    hash_function:
        Hash for carried packet hashes.
    """

    def __init__(self, scheme: Scheme, signer: Signer, block_size: int,
                 t_transmit: float = 0.01,
                 hash_function: HashFunction = sha256) -> None:
        if block_size < 1:
            raise SimulationError(f"block size must be >= 1, got {block_size}")
        if t_transmit <= 0:
            raise SimulationError(f"t_transmit must be > 0, got {t_transmit}")
        self.scheme = scheme
        self.signer = signer
        self.block_size = block_size
        self.t_transmit = t_transmit
        self.hash_function = hash_function
        self._next_seq = 1
        self._next_block = 0
        self._clock = 0.0

    def send_block(self, payloads: Sequence[bytes]) -> Block:
        """Packetize one block, born stamped with its send times.

        Returns the packets in send order, with their auth digests
        when the scheme computed them (:class:`~repro.schemes.base.Block`).
        """
        if not payloads:
            raise SimulationError("empty block")
        packets = self.scheme.make_block(
            list(payloads), self.signer, self.hash_function,
            block_id=self._next_block, base_seq=self._next_seq,
            start=self._clock, t_transmit=self.t_transmit,
        )
        self._next_block += 1
        self._next_seq += len(packets)
        # One more step of the clock the block was stamped with.
        self._clock = packets[-1].send_time + self.t_transmit
        return packets

    def send_stream(self, payloads: Iterable[bytes]) -> Iterator[Block]:
        """Yield stamped blocks for an arbitrary payload stream.

        The final block may be short (fewer than ``block_size``
        payloads); schemes handle any block size >= their minimum.
        """
        block: List[bytes] = []
        for payload in payloads:
            block.append(bytes(payload))
            if len(block) == self.block_size:
                yield self.send_block(block)
                block = []
        if block:
            yield self.send_block(block)
