"""TESLA: timed efficient stream loss-tolerant authentication.

The MAC-based scheme of Perrig et al. that the paper shows to be "a
derivative of signature amortization" once cast as a dependence-graph
(Sec. 3.2).  This module provides three things:

* :class:`TeslaParameters` / :class:`TeslaScheme` — the scheme object
  used by registries, metrics and analysis (its dependence-graph is the
  extended two-vertex graph of :mod:`repro.core.tesla_graph`);
* :class:`TeslaSender` — emits MAC'd packets, discloses chain keys with
  lag ``d`` intervals, signs a bootstrap packet, flushes trailing keys;
* :class:`TeslaReceiver` — enforces the *security condition* (a packet
  is dropped if its key may already have been disclosed when it
  arrived, the paper's ``ξ_i``), buffers packets until their key
  arrives, authenticates disclosed keys against the signed commitment
  by walking the one-way chain, and verifies MACs;
* :class:`TeslaVerifier` — the trial verifier, which opens a receiver
  from the signed bootstrap packet.

The receiver's clock may differ from the sender's by a bounded offset;
the bound is part of the bootstrap handshake as in real TESLA.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.core.graph import DependenceGraph
from repro.core.metrics import GraphMetrics
from repro.core.tesla_graph import TeslaDependenceGraph
from repro.crypto.hashing import HashFunction, sha256
from repro.crypto.keychain import KeyChain, KeyChainCommitment
from repro.crypto.mac import Mac, hmac_sha256
from repro.crypto.signatures import Signer
from repro.exceptions import SchemeParameterError, SimulationError
from repro.network.clock import Clock
from repro.packets import Packet
from repro.schemes.base import (DEFAULT_MAX_CANDIDATES, PacketOutcome,
                                Scheme, Trial, Verifier)

__all__ = [
    "TeslaParameters",
    "TeslaScheme",
    "TeslaSender",
    "TeslaReceiver",
    "TeslaVerdict",
    "TeslaVerifier",
    "BootstrapInfo",
]

_EXTRA = struct.Struct(">III")  # interval, disclosed_index, key_length
_BOOTSTRAP = struct.Struct(">dddI")  # t0, interval, max_offset, lag
_KEY_SIZE = 16

#: Key-chain seed derived from a trial's run seed when the scheme pins
#: none; recorded attacked-trial results depend on these exact bytes.
_DERIVED_CHAIN_SEED = b"adv-tesla-%d"


@dataclass(frozen=True)
class TeslaParameters:
    """Static TESLA session parameters.

    Attributes
    ----------
    interval:
        Time-slot duration in seconds.
    lag:
        Disclosure lag ``d`` in intervals; the disclosure delay is
        ``T_disclose = lag * interval``.
    chain_length:
        Number of MAC intervals covered by the key chain.
    t0:
        Sender-clock session start time.
    max_clock_offset:
        Bound on |receiver clock − sender clock| established at
        bootstrap; drives the security condition.
    """

    interval: float = 0.1
    lag: int = 10
    chain_length: int = 1024
    t0: float = 0.0
    max_clock_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise SchemeParameterError(f"interval must be > 0, got {self.interval}")
        if self.lag < 1:
            raise SchemeParameterError(f"lag must be >= 1, got {self.lag}")
        if self.chain_length < 1:
            raise SchemeParameterError(
                f"chain length must be >= 1, got {self.chain_length}"
            )
        if self.max_clock_offset < 0:
            raise SchemeParameterError("clock offset bound must be >= 0")

    @property
    def disclosure_delay(self) -> float:
        """``T_disclose = lag * interval`` in seconds."""
        return self.lag * self.interval

    def interval_of(self, sender_time: float) -> int:
        """1-based interval index containing ``sender_time``."""
        if sender_time < self.t0:
            raise SimulationError(
                f"time {sender_time} precedes session start {self.t0}"
            )
        return int(math.floor((sender_time - self.t0) / self.interval)) + 1

    def disclosure_time(self, interval_index: int) -> float:
        """Sender-clock time at which ``K_interval_index`` is disclosed."""
        return self.t0 + (interval_index + self.lag - 1) * self.interval


class TeslaScheme(Scheme):
    """Scheme-registry wrapper around TESLA.

    TESLA has no per-block hash-chain graph; its extended graph comes
    from :class:`TeslaDependenceGraph` and its metrics are analytic.
    ``seed`` optionally fixes the key chain (golden traces, tests), as
    :class:`~repro.schemes.rohatgi_online.OnlineRohatgiScheme`'s seed
    fixes its one-time keys.
    """

    timed = True

    def __init__(self, parameters: Optional[TeslaParameters] = None,
                 mac: Mac = hmac_sha256,
                 seed: Optional[bytes] = None) -> None:
        self.parameters = parameters or TeslaParameters()
        self.mac = mac
        self.seed = seed

    @property
    def name(self) -> str:
        p = self.parameters
        return f"tesla(d={p.lag},T={p.interval:g})"

    def build_graph(self, n: int) -> Optional[DependenceGraph]:
        """TESLA needs the extended graph; the plain one does not apply."""
        return None

    def q_profile(self, n: int, p: float, *, mu: float, sigma: float,
                  t_disclose: Optional[float] = None) -> Dict[int, float]:
        """Eq. 6 by interval, under ``N(mu, sigma²)`` delay.

        ``t_disclose`` defaults to this scheme's disclosure delay.
        """
        # The analysis layer builds on schemes: imported at call time.
        from repro.analysis import tesla as analysis

        if t_disclose is None:
            t_disclose = self.parameters.disclosure_delay
        return dict(enumerate(
            analysis.q_profile(n, p, t_disclose, mu, sigma), start=1))

    def build_extended_graph(self, n: int) -> TeslaDependenceGraph:
        """The Sec. 3.2 two-vertices-per-packet dependence-graph."""
        return TeslaDependenceGraph(n, lag=self.parameters.lag)

    def new_trial(self, signer: Signer, block_size: int, blocks: int, *,
                  hash_function: HashFunction = sha256,
                  t_transmit: float = 0.01,
                  seed: Optional[int] = None) -> Trial:
        """One stream of ``block_size * blocks`` packets, one per interval.

        The signed bootstrap packet goes first and the key-flush
        packets last; positions are interval indices, aligned with
        Eq. 6.  The key chain comes from the scheme's ``seed``, else
        from the run ``seed``, else fresh randomness.  The interval,
        not ``t_transmit``, paces the stream.
        """
        from repro.simulation.sender import make_payloads

        parameters = self.parameters
        count = block_size * blocks
        if count < 1:
            raise SimulationError(f"need >= 1 packet, got {count}")
        if count > parameters.chain_length:
            raise SimulationError("packet count exceeds key-chain length")
        chain_seed = self.seed
        if chain_seed is None and seed is not None:
            chain_seed = _DERIVED_CHAIN_SEED % seed
        sender = TeslaSender(parameters, signer, self.mac, seed=chain_seed)
        bootstrap = sender.bootstrap_packet().with_send_time(parameters.t0)
        data = [sender.send(payload,
                            parameters.t0 + index * parameters.interval)
                for index, payload in enumerate(make_payloads(count))]
        positions = {packet.seq: index
                     for index, packet in enumerate(data, start=1)}
        return Trial([bootstrap] + data + sender.flush_keys(count), positions,
                     partial(TeslaVerifier, bootstrap.seq, signer, self.mac,
                             hash_function))

    def metrics(self, n: int, l_sign: int = 128, l_hash: int = 16,
                sign_copies: int = 1) -> GraphMetrics:
        """Analytic metrics: MAC tag + disclosed key per packet.

        The bootstrap signature is amortized over ``n``; the receiver
        delay and message buffer equal the disclosure lag (in packet
        slots, at one packet per interval).
        """
        if n < 1:
            raise SchemeParameterError(f"need n >= 1, got {n}")
        per_packet = self.mac.tag_size + _KEY_SIZE
        return GraphMetrics(
            n=n,
            edge_count=0,
            mean_hashes=0.0,
            overhead_bytes=per_packet + sign_copies * l_sign / n,
            message_buffer=self.parameters.lag,
            hash_buffer=0,
            delay_slots=self.parameters.lag,
        )


@dataclass(frozen=True)
class BootstrapInfo:
    """Contents of the signed bootstrap packet."""

    commitment: bytes
    parameters: TeslaParameters

    def encode(self) -> bytes:
        p = self.parameters
        head = _BOOTSTRAP.pack(p.t0, p.interval, p.max_clock_offset, p.lag)
        return head + struct.pack(">I", p.chain_length) + self.commitment

    @classmethod
    def decode(cls, blob: bytes) -> "BootstrapInfo":
        try:
            t0, interval, max_offset, lag = _BOOTSTRAP.unpack_from(blob, 0)
            (chain_length,) = struct.unpack_from(">I", blob, _BOOTSTRAP.size)
        except struct.error as exc:
            raise SimulationError(f"malformed bootstrap packet: {exc}") from exc
        commitment = blob[_BOOTSTRAP.size + 4:]
        if len(commitment) != _KEY_SIZE:
            raise SimulationError("bootstrap commitment of unexpected size")
        parameters = TeslaParameters(
            interval=interval, lag=lag, chain_length=chain_length,
            t0=t0, max_clock_offset=max_offset,
        )
        return cls(commitment=commitment, parameters=parameters)


def _mac_input(seq: int, block_id: int, interval: int, payload: bytes) -> bytes:
    return struct.pack(">III", seq, block_id, interval) + payload


def _encode_extra(interval: int, tag: bytes, disclosed_index: int,
                  disclosed_key: bytes) -> bytes:
    return (_EXTRA.pack(interval, disclosed_index, len(disclosed_key))
            + tag + disclosed_key)


def _decode_extra(extra: bytes, tag_size: int):
    try:
        interval, disclosed_index, key_length = _EXTRA.unpack_from(extra, 0)
    except struct.error as exc:
        raise SimulationError(f"malformed TESLA packet: {exc}") from exc
    offset = _EXTRA.size
    tag = extra[offset:offset + tag_size]
    if len(tag) != tag_size:
        raise SimulationError("truncated TESLA MAC tag")
    offset += tag_size
    key = extra[offset:offset + key_length]
    if len(key) != key_length:
        raise SimulationError("truncated disclosed key")
    return interval, tag, disclosed_index, key


class TeslaSender:
    """Sender half of a TESLA session.

    Parameters
    ----------
    parameters:
        Session timing and chain configuration.
    signer:
        Signs the bootstrap packet only.
    mac:
        MAC algorithm for per-packet tags.
    seed:
        Optional fixed chain seed for reproducibility.
    """

    def __init__(self, parameters: TeslaParameters, signer: Signer,
                 mac: Mac = hmac_sha256, seed: Optional[bytes] = None) -> None:
        self.parameters = parameters
        self.signer = signer
        self.mac = mac
        self.chain = KeyChain(parameters.chain_length, seed=seed)
        self._next_seq = 1

    def _take_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def bootstrap_packet(self, block_id: int = 0) -> Packet:
        """The signed packet carrying the commitment and timing info."""
        info = BootstrapInfo(commitment=self.chain.commitment,
                             parameters=self.parameters)
        unsigned = Packet(
            seq=self._take_seq(), block_id=block_id,
            payload=b"", extra=info.encode(),
        )
        return unsigned.with_signature(
            self.signer.sign(unsigned.auth_bytes()))

    def send(self, payload: bytes, sender_time: float,
             block_id: int = 0) -> Packet:
        """Emit a data packet at ``sender_time`` (sender clock)."""
        interval = self.parameters.interval_of(sender_time)
        if interval > self.parameters.chain_length:
            raise SimulationError(
                f"interval {interval} beyond chain length "
                f"{self.parameters.chain_length}"
            )
        seq = self._take_seq()
        tag = self.mac.tag(self.chain.mac_key(interval),
                           _mac_input(seq, block_id, interval, payload))
        disclosed_index = interval - self.parameters.lag
        if disclosed_index >= 1:
            disclosed = self.chain.key(disclosed_index)
        else:
            disclosed_index, disclosed = 0, b""
        return Packet(
            seq=seq, block_id=block_id, payload=payload,
            extra=_encode_extra(interval, tag, disclosed_index, disclosed),
            send_time=sender_time,
        )

    def flush_keys(self, last_interval: int, block_id: int = 0) -> List[Packet]:
        """Disclosure-only packets for keys still undisclosed at stream end.

        TESLA must eventually disclose every key used; these trailing
        packets carry no payload or MAC, only key disclosures, sent at
        their scheduled disclosure times.
        """
        if not 0 <= last_interval <= self.parameters.chain_length:
            raise SimulationError(f"bad last interval {last_interval}")
        packets = []
        for index in range(max(last_interval - self.parameters.lag + 1, 1),
                           last_interval + 1):
            when = self.parameters.disclosure_time(index)
            packets.append(Packet(
                seq=self._take_seq(), block_id=block_id, payload=b"",
                extra=_encode_extra(0, b"\x00" * self.mac.tag_size,
                                    index, self.chain.key(index)),
                send_time=when,
            ))
        return packets


@dataclass
class TeslaVerdict(PacketOutcome):
    """Outcome of one data packet at the receiver.

    ``verified`` holds exactly when ``status`` is "verified";
    ``verified_time`` is when the MAC was checked, whatever the result.
    """

    interval: int = 0
    status: str = "pending"  # or "verified", "unsafe", "bad-mac", "bad-key"


class TeslaReceiver:
    """Receiver half of a TESLA session.

    Built from the *bootstrap packet* (whose signature must verify).
    Feed arriving packets to :meth:`receive`; completed verdicts
    accumulate in :attr:`verdicts`.

    It keeps the slot rule of :class:`~repro.schemes.base.Verifier`,
    holding candidates until their key is disclosed.  A packet that
    arrives too late to be safe fails its check, as a bad MAC does: its
    interval field is its own claim, so a copy with a forged interval
    must not lock the genuine packet out.  A failed status
    (``unsafe``, ``bad-mac``, ``bad-key``) stays on the record until
    another candidate arrives.

    Parameters
    ----------
    bootstrap:
        The signed bootstrap packet.
    signer:
        Verifier for the bootstrap signature (public part suffices).
    clock_offset:
        Receiver clock minus sender clock; |offset| must be within the
        bootstrap's ``max_clock_offset`` for correctness.
    clock:
        Optional injectable :class:`~repro.network.clock.Clock` used
        when :meth:`receive` is called without an explicit
        ``receiver_time``.  The security condition depends on *when*
        a packet arrived; requiring either an explicit time or an
        injected clock guarantees a wall clock can never leak into the
        disclosure check (frozen virtual clocks must yield
        bit-identical transcripts).
    """

    def __init__(self, bootstrap: Packet, signer: Signer,
                 mac: Mac = hmac_sha256, clock_offset: float = 0.0,
                 clock: Optional["Clock"] = None) -> None:
        if bootstrap.signature is None or not signer.verify(
                bootstrap.auth_bytes(), bootstrap.signature):
            raise SimulationError("bootstrap packet signature invalid")
        info = BootstrapInfo.decode(bootstrap.extra)
        self.parameters = info.parameters
        self.mac = mac
        self.clock_offset = clock_offset
        self.clock = clock
        self._anchor = KeyChainCommitment(0, info.commitment)
        self._mac_keys: Dict[int, bytes] = {}
        self._highest_key = 0
        # interval -> held candidates, in arrival order
        self._pending: Dict[int, List[Packet]] = {}
        # seq -> the packet that verified for it
        self._judged: Dict[int, Packet] = {}
        self.verdicts: Dict[int, TeslaVerdict] = {}
        #: Copies of content held or judged for their sequence number.
        self.replays_dropped = 0
        #: Data packets that failed their check, or arrived for a judged
        #: slot with other content, or past the candidate cap.
        self.forged_rejected = 0
        #: Disclosed keys rejected: failed authentication or an index
        #: beyond the committed chain.
        self.rejected_keys = 0
        #: The subset of ``rejected_keys`` stopped by the chain-length
        #: guard specifically (index beyond the commitment) — the
        #: late-join catch-up path must reject these *before* walking
        #: the chain, so the counter doubles as a CPU-exhaustion probe.
        self.guard_rejections = 0

    # ------------------------------------------------------------------

    def _sender_time_upper_bound(self, receiver_time: float) -> float:
        """Latest possible sender-clock time given the sync bound."""
        return receiver_time - self.clock_offset + self.parameters.max_clock_offset

    def _is_safe(self, interval: int, receiver_time: float) -> bool:
        """Security condition: the packet's key cannot be disclosed yet."""
        return (self._sender_time_upper_bound(receiver_time)
                < self.parameters.disclosure_time(interval))

    def _learn_key(self, index: int, chain_key: bytes) -> bool:
        """Authenticate a disclosed chain key and derive MAC keys."""
        if index > self.parameters.chain_length:
            # The commitment covers chain_length keys; a larger index
            # is forged, and authenticating it would walk the chain
            # attacker-many steps (CPU exhaustion) before failing.
            self.guard_rejections += 1
            return False
        if index <= self._highest_key:
            return True  # already known (or older than the anchor)
        if not self._anchor.authenticate(index, chain_key):
            return False
        # Derive every intermediate key by walking the one-way chain.
        current = chain_key
        for i in range(index, self._highest_key, -1):
            self._mac_keys.setdefault(i, KeyChain.derive_mac_key(current))
            current = KeyChain.walk_back(current, 1)
        self._highest_key = index
        return True

    def _flush_pending(self, receiver_time: float) -> None:
        ready = [i for i in self._pending if i <= self._highest_key]
        for interval in sorted(ready):
            key = self._mac_keys.get(interval)
            for packet in self._pending.pop(interval):
                seq = packet.seq
                if seq in self._judged:
                    self._count_copy(packet)
                    continue
                verdict = self.verdicts[seq]
                message = _mac_input(seq, packet.block_id, interval,
                                     packet.payload)
                payload_ok = key is not None and self.mac.verify(
                    key, message, self._tag_of(packet))
                verdict.verified_time = receiver_time
                if payload_ok:
                    verdict.status = "verified"
                    verdict.verified = True
                    self._judged[seq] = packet
                else:
                    verdict.status = "bad-mac"
                    self.forged_rejected += 1

    def _count_copy(self, packet: Packet) -> None:
        """Count a packet for a judged slot: a replay or a forgery."""
        judged = self._judged[packet.seq]
        if (packet.block_id, packet.payload) == (judged.block_id,
                                                 judged.payload):
            self.replays_dropped += 1
        else:
            self.forged_rejected += 1

    def _tag_of(self, packet: Packet) -> bytes:
        _, tag, _, _ = _decode_extra(packet.extra, self.mac.tag_size)
        return tag

    # ------------------------------------------------------------------

    def receive(self, packet: Packet,
                receiver_time: Optional[float] = None) -> None:
        """Process one arriving packet at local time ``receiver_time``.

        When ``receiver_time`` is omitted the injected ``clock`` is
        read instead; constructing the receiver without a clock and
        calling without a time is an error — there is deliberately no
        wall-clock fallback.
        """
        if receiver_time is None:
            if self.clock is None:
                raise SimulationError(
                    "receive() needs an explicit receiver_time or an "
                    "injected Clock; wall-clock defaults are forbidden")
            receiver_time = self.clock.now()
        interval, _tag, disclosed_index, disclosed_key = _decode_extra(
            packet.extra, self.mac.tag_size)
        if disclosed_index >= 1 and disclosed_key:
            if not self._learn_key(disclosed_index, disclosed_key):
                # A forged key never poisons state; data part still handled.
                self.rejected_keys += 1
                if interval == 0:
                    return
        if interval >= 1:
            self._take(packet, interval, receiver_time)
        self._flush_pending(receiver_time)

    def _take(self, packet: Packet, interval: int,
              receiver_time: float) -> None:
        """Judge or hold one data packet under the slot rule."""
        seq = packet.seq
        verdict = self.verdicts.get(seq)
        waiting = verdict is not None and verdict.status == "pending"
        # A candidate's interval is part of its auth bytes: its copies
        # wait in the same list.
        held = [candidate for candidate in self._pending.get(interval, ())
                if candidate.seq == seq]
        if seq in self._judged:
            # Verified: a replay or seq-colliding forgery cannot
            # overwrite the decision.
            self._count_copy(packet)
        elif any(candidate.auth_bytes() == packet.auth_bytes()
                 for candidate in held):
            self.replays_dropped += 1
        elif interval > self.parameters.chain_length:
            # No genuine sender can MAC past the committed chain, and
            # such a key is never disclosed — buffering would pin the
            # packet (and memory) forever.
            self.forged_rejected += 1
            self.verdicts.setdefault(seq, TeslaVerdict(
                seq=seq, interval=interval, status="bad-key",
                arrival_time=receiver_time))
        elif not self._is_safe(interval, receiver_time):
            # Its key may be out: it can never verify, and it leaves
            # the slot claimable.
            self.forged_rejected += 1
            if verdict is None:
                self.verdicts[seq] = TeslaVerdict(
                    seq=seq, interval=interval, status="unsafe",
                    arrival_time=receiver_time)
        elif len(held) >= DEFAULT_MAX_CANDIDATES:
            self.forged_rejected += 1
        else:
            if not waiting:
                self.verdicts[seq] = TeslaVerdict(
                    seq=seq, interval=interval, status="pending",
                    arrival_time=receiver_time)
            self._pending.setdefault(interval, []).append(packet)

    # ------------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Packets buffered awaiting key disclosure (message buffer)."""
        return sum(len(v) for v in self._pending.values())

    def counts(self) -> Dict[str, int]:
        """Histogram of verdict statuses."""
        histogram: Dict[str, int] = {}
        for verdict in self.verdicts.values():
            histogram[verdict.status] = histogram.get(verdict.status, 0) + 1
        return histogram


class TeslaVerifier(Verifier):
    """Trial verifier for TESLA: a :class:`TeslaReceiver` per bootstrap.

    The first packet under the bootstrap sequence number whose
    signature verifies opens the receiver; a later identical copy is a
    replay, anything else under that number a forgery.  Deliveries
    that overtake the bootstrap wait for it and are then processed in
    arrival order.
    """

    def __init__(self, bootstrap_seq: int, signer: Signer,
                 mac: Mac = hmac_sha256,
                 hash_function: HashFunction = sha256) -> None:
        super().__init__(hash_function)
        self._bootstrap_seq = bootstrap_seq
        self._signer = signer
        self._mac = mac
        self._receiver: Optional[TeslaReceiver] = None
        self._bootstrap: Optional[Packet] = None
        self._early: List[Tuple[Packet, float]] = []
        self._rejected = 0
        self._replays = 0

    def receive(self, packet: Packet, arrival_time: float,
                digest: Optional[bytes] = None) -> None:
        """Take one delivery; the bootstrap opens the receiver.

        ``digest`` is not needed: the audit digests what verified.
        """
        if packet.seq != self._bootstrap_seq:
            if self._receiver is None:
                self._early.append((packet, arrival_time))
            else:
                self._feed(packet, arrival_time)
        elif self._receiver is not None:
            if packet == self._bootstrap:
                self._replays += 1
            else:
                self._rejected += 1
        else:
            try:
                self._receiver = TeslaReceiver(packet, self._signer,
                                               self._mac)
            except SimulationError:
                self._rejected += 1
                return
            self._bootstrap = packet
            for held, when in self._early:
                self._feed(held, when)
            self._early.clear()

    def _feed(self, packet: Packet, arrival_time: float) -> None:
        receiver = self._receiver
        try:
            receiver.receive(packet, arrival_time)
        except SimulationError:
            self._rejected += 1
        self.message_buffer_peak = max(self.message_buffer_peak,
                                       receiver.pending_count)

    def finish(self) -> None:
        """Fail loudly when no valid bootstrap ever arrived."""
        if self._receiver is None:
            raise SimulationError(
                "bootstrap packet lost; enable signature protection on the "
                "channel")

    @property
    def forged_rejected(self) -> int:
        """Forged bootstraps, unparsable packets, rejected keys and the
        receiver's rejected data packets."""
        receiver = self._receiver
        if receiver is None:
            return self._rejected
        return (self._rejected + receiver.rejected_keys
                + receiver.forged_rejected)

    @property
    def replays_dropped(self) -> int:
        """Bootstrap copies plus the receiver's re-received sequences."""
        replays = self._receiver.replays_dropped if self._receiver else 0
        return self._replays + replays

    def verdict(self, seq: int) -> Optional[TeslaVerdict]:
        return self._receiver.verdicts.get(seq) if self._receiver else None

    def accepted_digests(self) -> Dict[int, bytes]:
        if self._receiver is None:
            return {}
        return {seq: self.content_digest(packet)
                for seq, packet in self._receiver._judged.items()
                if self._receiver.verdicts[seq].verified}

    def content_digest(self, packet: Packet) -> bytes:
        """Digest of the payload under its sequence number.

        That is what the MAC binds; a packet whose key-disclosure field
        was tampered with still verifies once a later packet discloses
        the key.
        """
        return self._hash.digest(
            Packet(packet.seq, packet.block_id, packet.payload).auth_bytes())
