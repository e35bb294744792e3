"""Scheme interface and the generic graph-driven block builder.

A *scheme* in this library is a recipe that (a) describes its
dependence-graph for any block size — the object the paper analyzes —
and (b) turns a block of payloads into real authenticated packets.
For every hash-chained scheme the second step is completely determined
by the first: walk the graph in reverse topological order, hash each
packet (payload + the hashes it carries), place each hash on the
packets that the graph says carry it, and sign the root.  That shared
machinery lives in :func:`build_block`; schemes that are not
hash-chained (sign-each, Wong–Lam, TESLA) override packetization.

The graph depends only on the scheme and the block size, so each
scheme compiles it once per ``n`` into a :class:`BlockPlan` — plain
integers, validated and topologically sorted at compile time — and
every later block of that size reuses it.  A plan also keeps the
packets of the last block it built, so the trials of a Monte Carlo
run, which send one block over many loss draws, hash and sign it once.

A scheme also owns its receiver side.  :meth:`Scheme.new_trial`
packetizes one trial into a :class:`Trial` — the sent packets, each
data packet's position and a factory for the scheme's
:class:`Verifier` — and every offline driver verifies through that one
protocol (:func:`repro.simulation.trials.run_trials`).  Likewise its
loss models: :meth:`Scheme.q_profile` (exact) and
:meth:`Scheme.recurrence_q_profile` (Eq. 9/10) are all the analysis
front doors call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from operator import attrgetter
from typing import (TYPE_CHECKING, Callable, ClassVar, Dict, Iterator, List,
                    Optional, Sequence, Tuple)

from repro.core.graph import DependenceGraph
from repro.core.metrics import GraphMetrics, compute_metrics
from repro.crypto.hashing import HashFunction, sha256
from repro.crypto.signatures import Signer
from repro.exceptions import (AnalysisError, PacketFormatError,
                               SchemeParameterError, SimulationError,
                               WireDecodeError)
from repro.packets import MAX_CARRIED_HASHES, Packet, packet_from_wire

if TYPE_CHECKING:
    from repro.faults.channel import WireDelivery

__all__ = ["Scheme", "BlockPlan", "build_block", "Trial", "Verifier",
           "ChainEdges", "PacketOutcome", "DEFAULT_MAX_CANDIDATES"]


class Scheme(ABC):
    """A multicast authentication scheme.

    Subclasses define the dependence-graph topology; block
    packetization and metric extraction are inherited.

    Contract: :meth:`build_graph` is a pure function of the
    constructor parameters and ``n``, and a scheme is immutable after
    construction.  :meth:`make_block` relies on both — it compiles the
    graph for each block size once (:meth:`block_plan`) and reuses the
    plan for every later block of that size.  A scheme whose graph is
    redrawn per call (:class:`~repro.schemes.random_graph.RandomGraphScheme`
    without a seed) overrides :meth:`block_plan` to compile afresh.

    Class attributes
    ----------------
    individually_verifiable:
        ``True`` for schemes where every received packet verifies on
        its own (sign-each, Wong–Lam): ``q_i ≡ 1`` and
        :meth:`build_graph` returns ``None``.
    timed:
        ``True`` for schemes whose verdicts depend on arrival times
        (TESLA's security condition): trial channels for them carry a
        delay model.
    """

    individually_verifiable: ClassVar[bool] = False
    timed: ClassVar[bool] = False

    @property
    @abstractmethod
    def name(self) -> str:
        """Short identifier, e.g. ``"emss(2,1)"``."""

    @abstractmethod
    def build_graph(self, n: int) -> Optional[DependenceGraph]:
        """The dependence-graph for a block of ``n`` packets.

        Returns ``None`` for individually-verifiable schemes, which
        have no inter-packet dependences to draw.
        """

    # ------------------------------------------------------------------
    # Packetization
    # ------------------------------------------------------------------

    def make_block(self, payloads: Sequence[bytes], signer: Signer,
                   hash_function: HashFunction = sha256,
                   block_id: int = 0, base_seq: int = 1) -> List[Packet]:
        """Build the authenticated packets for one block, in send order.

        The default implementation runs this scheme's compiled
        :meth:`block_plan`, which reuses the packets of its last block
        when the same block comes again (:meth:`BlockPlan.packetize`);
        individually-verifiable schemes must override.
        """
        return self.block_plan(len(payloads)).packetize(
            payloads, signer, hash_function,
            block_id=block_id, base_seq=base_seq)

    def block_plan(self, n: int) -> BlockPlan:
        """The compiled dependence-graph for blocks of ``n`` packets.

        Compiled from :meth:`build_graph` on the first call for each
        ``n`` and kept on the instance.
        """
        plans = vars(self).setdefault("_block_plans", {})
        plan = plans.get(n)
        if plan is None:
            graph = self.build_graph(n)
            if graph is None:
                raise SchemeParameterError(
                    f"{self.name} does not use the generic block builder"
                )
            plan = plans[n] = BlockPlan.compile(graph)
        return plan

    # ------------------------------------------------------------------
    # Trials
    # ------------------------------------------------------------------

    def new_trial(self, signer: Signer, block_size: int, blocks: int, *,
                  hash_function: HashFunction = sha256,
                  t_transmit: float = 0.01,
                  seed: Optional[int] = None) -> Trial:
        """Packetize one trial: ``blocks`` blocks of ``block_size`` payloads.

        ``seed`` pins any key material the scheme draws for itself, so
        a trial is the same in every process.  The default streams the
        blocks through a :class:`~repro.simulation.sender.StreamSender`
        and verifies with the generic hash-chain receiver; schemes with
        their own packet format override this to pair their packets
        with their own verifier.
        """
        # The simulation layer builds on schemes: imported at call time.
        from repro.simulation.receiver import ChainReceiver

        packets, positions = self._send_blocks(signer, block_size, blocks,
                                               hash_function, t_transmit)
        return Trial(packets, positions,
                     partial(ChainReceiver, signer, hash_function))

    def _send_blocks(self, signer: Signer, block_size: int, blocks: int,
                     hash_function: HashFunction, t_transmit: float
                     ) -> Tuple[List[Packet], Dict[int, int]]:
        """Stamped blocks in send order, and each packet's block position."""
        from repro.simulation.sender import StreamSender, make_payloads

        sender = StreamSender(self, signer, block_size, t_transmit=t_transmit,
                              hash_function=hash_function)
        packets: List[Packet] = []
        positions: Dict[int, int] = {}
        for _ in range(blocks):
            block = sender.send_block(make_payloads(block_size))
            for position, packet in enumerate(block, start=1):
                positions[packet.seq] = position
            packets.extend(block)
        return packets, positions

    # ------------------------------------------------------------------
    # Loss models
    # ------------------------------------------------------------------

    def q_profile(self, n: int, p: float, **delay: float) -> Dict[int, float]:
        """Exact ``q_i`` by send position, from the frontier engine.

        Closed forms override this; ``delay`` (``mu``, ``sigma``,
        ``t_disclose``) is for timed schemes.
        """
        if self.individually_verifiable:
            return dict.fromkeys(range(1, n + 1), 1.0)
        # The analysis layer builds on schemes: imported at call time.
        from repro.analysis.frontier import frontier_q_profile

        try:
            plan = self.block_plan(n)
        except SchemeParameterError as exc:
            raise AnalysisError(
                f"no analytic q_i model for {self.name} at n = {n}: {exc}"
            ) from exc
        return frontier_q_profile(plan, p)

    def recurrence_q_profile(self, n: int,
                             p: float) -> Optional[Dict[int, float]]:
        """The Eq. 9/10 approximation by send position, if there is one."""
        return None

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def metrics(self, n: int, l_sign: int = 128, l_hash: int = 16,
                sign_copies: int = 1) -> GraphMetrics:
        """Graph-derived metrics for a block of size ``n`` (Sec. 3).

        Individually-verifiable schemes synthesize the equivalent
        record (their per-packet overhead is scheme-specific and
        handled by overrides).
        """
        graph = self.build_graph(n)
        if graph is None:
            raise SchemeParameterError(
                f"{self.name} must override metrics(): no dependence-graph"
            )
        return compute_metrics(graph, l_sign=l_sign, l_hash=l_hash,
                               sign_copies=sign_copies)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


def build_block(graph: DependenceGraph, payloads: Sequence[bytes],
                signer: Signer, hash_function: HashFunction = sha256,
                block_id: int = 0, base_seq: int = 1) -> List[Packet]:
    """Materialize a dependence-graph into authenticated packets.

    Parameters
    ----------
    graph:
        Dependence-graph over ``n = len(payloads)`` vertices; vertex
        ``v`` corresponds to ``payloads[v-1]`` and send order is vertex
        order.
    payloads:
        Application data for each packet.
    signer:
        Signs the root packet's :meth:`~repro.packets.Packet.auth_bytes`.
    hash_function:
        Hash used for the carried packet hashes (``l_hash`` on the wire).
    block_id, base_seq:
        Stream placement: packets get sequence numbers
        ``base_seq .. base_seq + n - 1``.

    Returns
    -------
    list of Packet
        In send order.  Every packet's carried hashes match the graph's
        out-edges; the root packet is signed.

    Raises
    ------
    SimulationError, PacketFormatError
        For what :class:`~repro.packets.Packet` would refuse: a
        sequence below 1, a sequence or ``block_id`` outside 32 bits,
        a negative ``block_id``, a payload over the blob cap.

    Notes
    -----
    A packet's hash covers the hashes it carries, so hashes must be
    computed in *reverse* topological order of the dependence relation
    (leaves first).  The dependence-graph being acyclic guarantees this
    order exists; :meth:`DependenceGraph.topological_order` supplies it.
    Compiling the graph (:meth:`BlockPlan.compile`) validates it, and
    so what the packet constructor would re-check on every carried
    hash is checked once: each packet is then built in one pass, born
    with its ``auth_bytes()`` encoding, which is hashed once (see
    :mod:`repro.packets`).
    """
    return BlockPlan.compile(graph).packetize(
        payloads, signer, hash_function,
        block_id=block_id, base_seq=base_seq)


@dataclass(frozen=True)
class BlockPlan:
    """A dependence-graph compiled for packetization.

    Holds only integers: the signed ``root``, the vertices in
    ``order`` (reverse topological order, so every vertex comes after
    the vertices whose hashes it carries) and ``successors[v - 1]``,
    the sorted vertices whose hashes vertex ``v`` carries.

    A plan is checked once, when it is made, for what every packet of
    every block would otherwise re-check: each vertex carries at most
    :data:`~repro.packets.MAX_CARRIED_HASHES` hashes, of distinct
    vertices in the block other than itself.  :meth:`packetize` then
    checks the block's ids once and each packet's sizes only.

    A plan also remembers the last block it packetized, so the trials
    of a Monte Carlo run, which send the same block over fresh loss
    draws, hash and sign it once.  The memo holds one block and is
    not pickled or copied.
    """

    n: int
    root: int
    order: Tuple[int, ...]
    successors: Tuple[Tuple[int, ...], ...]
    #: ``(signer, hash_function, (block_id, base_seq, payloads),
    #: packets)`` of the last :meth:`packetize` call.
    _last: Optional[tuple] = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self) -> None:
        for vertex, targets in enumerate(self.successors, start=1):
            if len(targets) > MAX_CARRIED_HASHES:
                raise PacketFormatError(
                    f"vertex {vertex} carries {len(targets)} hashes, over "
                    f"the cap {MAX_CARRIED_HASHES}")
            if len(set(targets)) != len(targets):
                raise SimulationError(
                    f"vertex {vertex} carries a hash twice: {targets}")
            for target in targets:
                if target == vertex:
                    raise SimulationError(
                        f"vertex {vertex} cannot carry its own hash")
                if not 1 <= target <= self.n:
                    raise SimulationError(
                        f"vertex {vertex} carries a hash of {target}, "
                        f"outside the block of {self.n}")

    def __getstate__(self) -> dict:
        state = dict(vars(self))
        state["_last"] = None
        return state

    @classmethod
    def compile(cls, graph: DependenceGraph) -> BlockPlan:
        """Validate ``graph`` and flatten it into a plan."""
        graph.validate()
        return cls(
            n=graph.n,
            root=graph.root,
            order=tuple(reversed(graph.topological_order())),
            successors=tuple(tuple(graph.successors(v))
                             for v in graph.vertices),
        )

    def packetize(self, payloads: Sequence[bytes], signer: Signer,
                  hash_function: HashFunction = sha256,
                  block_id: int = 0, base_seq: int = 1) -> List[Packet]:
        """Build the packets of one block; see :func:`build_block`.

        Each packet is made once, with its ``auth_bytes()`` string,
        which is then hashed (and, for the root, signed).

        A call with the same ``block_id``, ``base_seq`` and payload
        bytes as the previous one, and the same ``signer`` and
        ``hash_function`` objects, returns a new list of that call's
        packets and hashes and signs nothing.  The packets are
        immutable and a pure function of that key, given a
        deterministic signer (:class:`~repro.crypto.signatures.Signer`).
        The payloads are keyed as the ``bytes`` the packets hold, so a
        buffer changed after a call cannot hit.
        """
        n = len(payloads)
        if n != self.n:
            raise SchemeParameterError(
                f"graph is over {self.n} packets but {n} payloads given"
            )
        offset = base_seq - 1
        Packet._check_ids(block_id, base_seq, offset + n)
        key = (block_id, base_seq, tuple(map(bytes, payloads)))
        last = self._last
        if (last is not None and last[0] is signer
                and last[1] is hash_function and last[2] == key):
            return list(last[3])
        contents = key[2]
        successors = self.successors
        digest = hash_function.digest
        from_plan = Packet._from_plan
        hashes: List[Optional[bytes]] = [None] * (n + 1)
        packets: List[Optional[Packet]] = [None] * n
        for vertex in self.order:
            packet = from_plan(
                offset + vertex, block_id, contents[vertex - 1],
                tuple([(offset + target, hashes[target])
                       for target in successors[vertex - 1]]))
            auth = packet.auth_bytes()
            if vertex == self.root:
                packet = packet.with_signature(signer.sign(auth))
            hashes[vertex] = digest(auth)
            packets[vertex - 1] = packet
        object.__setattr__(self, "_last",
                           (signer, hash_function, key, tuple(packets)))
        return packets


#: Same-sequence candidates a verifier holds per slot.  The
#: eavesdrop-and-inject adversary sends forgeries *after* the genuine
#: packet, so slot 1 suffices for it; the margin covers blind
#: pre-emptive collisions without unbounding memory.
DEFAULT_MAX_CANDIDATES = 4


@dataclass
class PacketOutcome:
    """A verifier's record of one received sequence number."""

    seq: int
    arrival_time: float
    verified: bool = False
    forged: bool = False
    verified_time: Optional[float] = None

    @property
    def delay(self) -> Optional[float]:
        """Wait between arrival and verification (None if never verified)."""
        if self.verified_time is None:
            return None
        return self.verified_time - self.arrival_time


#: ``on_ingest(delivery)``: called by :meth:`Verifier.ingest_run` after
#: each delivery of a run is ingested.
IngestHook = Callable[["WireDelivery"], None]


def _no_match(packet: Packet, token: bytes) -> bool:
    return False


@dataclass(frozen=True)
class ChainEdges:
    """How a dependence graph's edges authenticate, beyond hash links.

    The hash-chain receiver
    (:class:`~repro.simulation.receiver.ChainReceiver`) verifies every
    dependence-graph scheme: a vertex verifies by its signature, or by
    matching a token an already verified packet vouched for it.  By
    default the token is the packet's hash, carried in its parent.  A
    scheme whose edges are something else says so here:

    ``signed(packet)``
        The check of a packet that carries a signature; ``None`` keeps
        ``signer.verify(packet.auth_bytes(), packet.signature)``.
    ``vouches(packet)``
        The ``(seq, token)`` pairs a verified packet vouches for; by
        default the hashes it carries.
    ``matches(packet, token)``
        Whether ``packet`` matches the token vouched for its sequence
        number when the token is not its hash; by default never.
    """

    signed: Optional[Callable[[Packet], bool]] = None
    vouches: Callable[[Packet], Sequence[Tuple[int, bytes]]] = attrgetter(
        "carried")
    matches: Callable[[Packet, bytes], bool] = _no_match


class Verifier(ABC):
    """Receiver side of one trial: the protocol every scheme's verifier speaks.

    Deliveries arrive through :meth:`receive`, one decoded packet at a
    time, or :meth:`ingest_run`, a run of raw wire deliveries (one
    :meth:`ingest_wire` each unless the verifier loops over the run
    itself).  After the last delivery, :meth:`finish` settles anything
    held back, and :meth:`verdict` answers with a
    :class:`PacketOutcome`.  Every delivery takes the same path, so a
    loss-only channel and an attacked one differ only in what arrives.

    Every verifier keeps one slot rule for a sequence number:

    * a packet that fails its authentication check never verifies and
      never claims the slot, so it cannot keep the genuine packet out;
      it counts in ``forged_rejected`` every time it arrives, and so
      does any other content arriving for a slot that has verified;
    * a copy of content the verifier holds (an unverified candidate
      waiting for its check) or has accepted for that slot counts in
      ``replays_dropped``;
    * until its check is possible, a slot holds up to
      :data:`DEFAULT_MAX_CANDIDATES` distinct candidates, in arrival
      order, and the first that passes takes it; a further one counts
      in ``forged_rejected``.

    A buffer the strict decoder refuses counts in ``undecodable``.
    ``forged`` counts the records flagged forged, as
    :class:`~repro.simulation.stats.SimulationStats` does.
    For the soundness audit, :meth:`accepted_digests` must match the
    :meth:`content_digest` of the packet sent under each sequence number.
    """

    forged = 0
    undecodable = 0
    forged_rejected = 0
    replays_dropped = 0
    message_buffer_peak = 0
    hash_buffer_peak = 0
    _audited = 0

    def __init__(self, hash_function: HashFunction = sha256) -> None:
        self._hash = hash_function

    @abstractmethod
    def receive(self, packet: Packet, arrival_time: float) -> object:
        """Take one delivered packet."""

    def ingest_wire(self, data: bytes, arrival_time: float) -> object:
        """Decode one wire buffer strictly, then :meth:`receive` it."""
        try:
            packet = packet_from_wire(data)
        except WireDecodeError:
            self.undecodable += 1
            return None
        return self.receive(packet, arrival_time)

    def ingest_run(self, deliveries: Sequence["WireDelivery"],
                   on_ingest: Optional[IngestHook] = None) -> None:
        """:meth:`ingest_wire` each delivery of a run, in order.

        ``on_ingest(delivery)``, when given, is called after each one.
        """
        for delivery in deliveries:
            self.ingest_wire(delivery.data, delivery.arrival_time)
            if on_ingest is not None:
                on_ingest(delivery)

    def finish(self) -> None:
        """Settle anything held back once the last delivery is in."""

    @abstractmethod
    def verdict(self, seq: int) -> Optional[PacketOutcome]:
        """The record of ``seq``; ``None`` when nothing arrived for it."""

    @abstractmethod
    def accepted_digests(self) -> Dict[int, bytes]:
        """:meth:`content_digest` of every accepted packet, by sequence.

        A verifier settled more than once keeps it in acceptance order
        and never drops an entry (see :meth:`fresh_accepted`).
        """

    def fresh_accepted(self) -> Iterator[Tuple[int, bytes]]:
        """The :meth:`accepted_digests` entries new since the last call.

        Read newest first, so the cost is theirs alone.
        """
        accepted = self.accepted_digests()
        fresh = len(accepted) - self._audited
        self._audited = len(accepted)
        return islice(reversed(accepted.items()), fresh)

    def content_digest(self, packet: Packet) -> bytes:
        """Digest of everything verification authenticates in ``packet``."""
        return self._hash.digest(packet.auth_bytes())


@dataclass(frozen=True)
class Trial:
    """One trial's sent stream and the way to verify it.

    ``packets`` holds every packet sent, in send order; ``positions``
    maps each data packet's sequence number to its 1-based position
    (block position, or TESLA's interval index), in send order;
    ``new_verifier()`` returns a fresh :class:`Verifier` for one
    receiver.
    """

    packets: List[Packet]
    positions: Dict[int, int]
    new_verifier: Callable[..., Verifier]
