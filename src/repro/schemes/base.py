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
packets of the last block it built (a :class:`LastBlock`), so the
trials of a Monte Carlo run, which send one block over many loss
draws, hash and sign it once; sign-each and Wong–Lam keep theirs the
same way.  The memo also keeps each packet's auth digest and the
packets stamped with their send times, so a repeated block is born
stamped (:func:`stamp`) and hands its digests on (:class:`Block`).

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
from typing import (TYPE_CHECKING, Callable, ClassVar, Dict, Iterable,
                    Iterator, List, Optional, Sequence, Tuple)

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

__all__ = ["Scheme", "BlockPlan", "build_block", "Block", "LastBlock",
           "stamp", "Trial", "Verifier", "ChainEdges", "PacketOutcome",
           "DEFAULT_MAX_CANDIDATES"]


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
    #: A scheme that builds its own blocks keeps the last one here
    #: (sign-each, Wong–Lam); pickling drops it.
    _last: Optional[LastBlock] = None

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
                   block_id: int = 0, base_seq: int = 1, *,
                   start: float = 0.0, t_transmit: float = 0.0) -> Block:
        """Build the authenticated packets for one block, in send order.

        Packet ``i`` (from 0) is stamped with the send time ``start``
        plus ``i`` steps of ``t_transmit`` (:func:`stamp`); the
        defaults leave every send time 0.

        The default implementation runs this scheme's compiled
        :meth:`block_plan`, which reuses the packets of its last block
        when the same block comes again (:meth:`BlockPlan.packetize`);
        individually-verifiable schemes must override.
        """
        return self.block_plan(len(payloads)).packetize(
            payloads, signer, hash_function, block_id=block_id,
            base_seq=base_seq, start=start, t_transmit=t_transmit)

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

        packets, positions, digests = self._send_blocks(
            signer, block_size, blocks, hash_function, t_transmit)
        return Trial(packets, positions,
                     partial(ChainReceiver, signer, hash_function), digests)

    def _send_blocks(self, signer: Signer, block_size: int, blocks: int,
                     hash_function: HashFunction, t_transmit: float
                     ) -> Tuple[List[Packet], Dict[int, int],
                                Optional[List[bytes]]]:
        """Stamped blocks in send order, each packet's block position,
        and the packets' auth digests when every block had them."""
        from repro.simulation.sender import StreamSender, make_payloads

        sender = StreamSender(self, signer, block_size, t_transmit=t_transmit,
                              hash_function=hash_function)
        packets: List[Packet] = []
        positions: Dict[int, int] = {}
        digests: Optional[List[bytes]] = []
        for _ in range(blocks):
            block = sender.send_block(make_payloads(block_size))
            for position, packet in enumerate(block, start=1):
                positions[packet.seq] = position
            packets.extend(block)
            if digests is not None and block.digests is not None:
                digests.extend(block.digests)
            else:
                digests = None
        return packets, positions, digests

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

    def __getstate__(self) -> dict:
        # The kept block is run state, not part of the scheme.
        state = dict(vars(self))
        state.pop("_last", None)
        return state


def build_block(graph: DependenceGraph, payloads: Sequence[bytes],
                signer: Signer, hash_function: HashFunction = sha256,
                block_id: int = 0, base_seq: int = 1) -> Block:
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
    Block
        The packets in send order, with their auth digests.  Every
        packet's carried hashes match the graph's out-edges; the root
        packet is signed.

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


class Block(list):
    """One block's packets in send order, and their auth digests.

    A list of packets, as :meth:`Scheme.make_block` has always
    returned, that also carries ``digests``: each packet's
    ``hash_function.digest(auth_bytes())`` in send order, when the
    builder computed them (``None`` when it did not).
    """

    __slots__ = ("digests",)

    def __init__(self, packets: Iterable[Packet] = (),
                 digests: Optional[Sequence[bytes]] = None) -> None:
        super().__init__(packets)
        self.digests = digests


def stamp(packets: Sequence[Packet], start: float = 0.0,
          t_transmit: float = 0.0) -> List[Packet]:
    """``packets``, built with send time 0, sent one per ``t_transmit``.

    The first is stamped ``start``.  The clock advances by addition,
    packet by packet, as a sender's clock does, so a stream stamped
    block by block carries the same floats.  With both times 0 the
    packets are returned as they are.
    """
    if start == 0.0 and t_transmit == 0.0:
        return list(packets)
    stamped = []
    clock = start
    for packet in packets:
        stamped.append(packet.with_send_time(clock))
        clock += t_transmit
    return stamped


#: ``build(contents, signer, hash_function, block_id, base_seq) ->
#: (packets, digests)``: one block built at send time 0, with each
#: packet's auth digest (or ``None``).
BlockBuilder = Callable[[Tuple[bytes, ...], Signer, HashFunction, int, int],
                        Tuple[Sequence[Packet], Optional[Sequence[bytes]]]]


class LastBlock:
    """The one-entry memo of a block builder: the last block it built.

    The trials of a Monte Carlo run send the same block over fresh
    loss draws, so a builder that keeps its last block hashes and signs
    it once per run.  A block plan keeps one (:attr:`BlockPlan._last`),
    and so do the schemes that build blocks themselves (sign-each,
    Wong–Lam).

    The key is the block's ``block_id``, ``base_seq`` and payload
    bytes, and the ``signer`` and ``hash_function`` objects.  The
    packets are immutable and a pure function of that key, given a
    deterministic signer (:class:`~repro.crypto.signatures.Signer`).
    The payloads are keyed as the ``bytes`` the packets hold, so a
    buffer changed after a call cannot hit.

    Besides the packets as built, it keeps each packet's auth digest
    and the packets stamped for the last clock asked for (:meth:`sent`),
    so a block sent again at the same times makes no copies.  Its
    owner drops it when pickled.
    """

    __slots__ = ("signer", "hash_function", "key", "packets", "digests",
                 "_stamp", "_sent")

    def __init__(self, signer: Signer, hash_function: HashFunction,
                 key: tuple, packets: Tuple[Packet, ...],
                 digests: Optional[Tuple[bytes, ...]]) -> None:
        self.signer = signer
        self.hash_function = hash_function
        self.key = key
        self.packets = packets
        self.digests = digests
        self._stamp = (0.0, 0.0)
        self._sent = packets

    @classmethod
    def recall(cls, last: Optional[LastBlock], build: BlockBuilder,
               payloads: Sequence[bytes], signer: Signer,
               hash_function: HashFunction, block_id: int,
               base_seq: int) -> LastBlock:
        """``last`` when it holds this block, else the block ``build`` makes."""
        key = (block_id, base_seq, tuple(map(bytes, payloads)))
        if (last is not None and last.signer is signer
                and last.hash_function is hash_function and last.key == key):
            return last
        packets, digests = build(key[2], signer, hash_function, block_id,
                                 base_seq)
        return cls(signer, hash_function, key, tuple(packets),
                   None if digests is None else tuple(digests))

    def sent(self, start: float = 0.0, t_transmit: float = 0.0) -> Block:
        """A new :class:`Block` of the packets stamped from ``start``.

        Stamps (:func:`stamp`) only when the clock differs from the
        last call's.
        """
        clock = (start, t_transmit)
        if clock != self._stamp:
            self._sent = tuple(stamp(self.packets, start, t_transmit))
            self._stamp = clock
        return Block(self._sent, self.digests)


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

    A plan also remembers the last block it packetized (a
    :class:`LastBlock`), so the trials of a Monte Carlo run, which send
    the same block over fresh loss draws, hash and sign it once.  The
    memo holds one block and is not pickled or copied.
    """

    n: int
    root: int
    order: Tuple[int, ...]
    successors: Tuple[Tuple[int, ...], ...]
    #: The last block :meth:`packetize` built.
    _last: Optional[LastBlock] = field(default=None, init=False, repr=False,
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
                  block_id: int = 0, base_seq: int = 1, *,
                  start: float = 0.0, t_transmit: float = 0.0) -> Block:
        """Build the packets of one block; see :func:`build_block`.

        Each packet is made once, with its ``auth_bytes()`` string,
        which is then hashed (and, for the root, signed); the hashes
        are the block's ``digests``.  Send times are stamped as
        :meth:`Scheme.make_block` says.

        A call with the same ``block_id``, ``base_seq`` and payload
        bytes as the previous one, and the same ``signer`` and
        ``hash_function`` objects, returns a new list of that call's
        packets and hashes and signs nothing (:class:`LastBlock`).
        """
        n = len(payloads)
        if n != self.n:
            raise SchemeParameterError(
                f"graph is over {self.n} packets but {n} payloads given"
            )
        Packet._check_ids(block_id, base_seq, base_seq - 1 + n)
        last = LastBlock.recall(self._last, self._build, payloads, signer,
                                hash_function, block_id, base_seq)
        object.__setattr__(self, "_last", last)
        return last.sent(start, t_transmit)

    def _build(self, contents: Tuple[bytes, ...], signer: Signer,
               hash_function: HashFunction, block_id: int, base_seq: int
               ) -> Tuple[List[Packet], List[bytes]]:
        offset = base_seq - 1
        successors = self.successors
        digest = hash_function.digest
        from_plan = Packet._from_plan
        hashes: List[Optional[bytes]] = [None] * (self.n + 1)
        packets: List[Optional[Packet]] = [None] * self.n
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
        return packets, hashes[1:]


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

#: Content-keyed decode memo shared by the receivers of one stream:
#: wire bytes -> ``(packet, content digest)``, or ``(None, None)`` for
#: bytes the strict decoder rejected.  Every value is a pure function
#: of the key (the codec is canonical), so sharing it cannot change a
#: verdict; see :func:`repro.simulation.receiver.ingest_run`.
WireMemo = Dict[bytes, Tuple[Optional[Packet], Optional[bytes]]]


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
    time, or :meth:`ingest_run`, a run of raw wire deliveries that it
    decodes (through a decode memo when there is one) and hands to
    :meth:`receive`.  After the last delivery, :meth:`finish` settles
    anything held back, and :meth:`verdict` answers with a
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
    #: The decode memo :meth:`ingest_run` uses when it is given none.
    _wire_memo: Optional[WireMemo] = None
    #: What the most recent :meth:`ingest_run` delivery came to, for
    #: lifecycle tracing: ``"undecodable"`` (and no packet), or the
    #: taxonomy :meth:`receive` writes, where a verifier keeps one.
    last_ingest: Optional[str] = None
    last_ingest_packet: Optional[Packet] = None

    def __init__(self, hash_function: HashFunction = sha256) -> None:
        self._hash = hash_function

    @abstractmethod
    def receive(self, packet: Packet, arrival_time: float,
                digest: Optional[bytes] = None) -> object:
        """Take one delivered packet.

        ``digest`` is the packet's :meth:`content_digest` when the
        caller already has it; a verifier may then skip computing it.
        """

    def ingest_wire(self, data: bytes, arrival_time: float) -> object:
        """Decode one wire buffer strictly, then :meth:`receive` it."""
        try:
            packet = packet_from_wire(data)
        except WireDecodeError:
            self.undecodable += 1
            return None
        return self.receive(packet, arrival_time)

    def ingest_run(self, deliveries: Sequence["WireDelivery"],
                   on_ingest: Optional[IngestHook] = None,
                   memo: Optional[WireMemo] = None) -> None:
        """Decode and :meth:`receive` a run of wire deliveries, in order.

        ``memo`` (else the verifier's own, if it has one) maps wire
        bytes to their decode and :meth:`content_digest`; see
        :func:`repro.simulation.receiver.ingest_run`, the one loop
        behind every verifier.  ``on_ingest(delivery)``, when given, is
        called after each one.
        """
        # The simulation layer builds on schemes: imported at call time.
        from repro.simulation.receiver import ingest_run

        ingest_run(self, deliveries, on_ingest, memo)

    def finish(self) -> None:
        """Settle anything held back once the last delivery is in."""

    @abstractmethod
    def verdict(self, seq: int) -> Optional[PacketOutcome]:
        """The record of ``seq``; ``None`` when nothing arrived for it."""

    @abstractmethod
    def accepted_digests(self) -> Dict[int, bytes]:
        """:meth:`content_digest` of every accepted packet, by sequence.

        A verifier settled more than once keeps it in acceptance order
        (see :meth:`fresh_accepted`).  It may drop an entry only once
        :meth:`fresh_accepted` has yielded it, and must then lower
        ``_audited`` by one: the live receiver's block close does.
        """

    def fresh_accepted(self) -> Iterator[Tuple[int, bytes]]:
        """The :meth:`accepted_digests` entries new since the last call.

        Read newest first, so the cost is theirs alone.  ``_audited``
        counts the entries already yielded, which are the oldest ones;
        so each accepted digest is yielded exactly once, whatever the
        verifier dropped from the yielded ones in between.
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

    ``packets`` holds every packet sent, in send order, under distinct
    sequence numbers; ``positions`` maps each data packet's sequence
    number to its 1-based position (block position, or TESLA's
    interval index), in send order; ``new_verifier()`` returns a fresh
    :class:`Verifier` for one receiver.  ``digests``, when the scheme
    has them, holds each packet's :meth:`Verifier.content_digest`
    under that verifier, in ``packets`` order.
    """

    packets: List[Packet]
    positions: Dict[int, int]
    new_verifier: Callable[..., Verifier]
    digests: Optional[Sequence[bytes]] = None
