"""Dynamic membership: deterministic join/leave/crash plans for serve.

The paper's graphs assume a fixed receiver population; a production
multicast group churns constantly.  This module turns the abstract
churn-event stream of :mod:`repro.faults.churn` into a validated,
executable :class:`MembershipPlan` over concrete receiver identities:

* the **universe** is the full set of identities a session may ever
  host — initial members first, joinable spares after — and a
  receiver's *universe index* is its stable position in it.  Channel
  and attack seeding key on the universe index, never on a mutable
  list position, so a session with no churn is byte-identical to the
  pre-membership serve loop and a joiner's channel draws do not
  depend on who left before it arrived;
* **joins and leaves apply at block boundaries** (before the block
  streams), **crashes strike mid-block** (after the block is on the
  wire, before the victim settles it);
* validation enforces the protocol invariants the serve loop relies
  on: one join and one departure per receiver, joins only from the
  spare pool, departures only of active members, and at least one
  member surviving every block — the per-block barrier must never go
  empty.

Late joiners bootstrap per scheme (:data:`BOOTSTRAP_RULES`): every
block is self-contained in the serve layer — a signed root for
chain/EMSS/AC schemes, a dispersal boundary for SAIDA — so aligning
joins at block boundaries *is* the "resynchronize at the next signed
root / dispersal boundary" rule, and a joiner's first block verifies
exactly like any other receiver's.  TESLA is the exception with real
catch-up state: its receiver walks the disclosed key chain back to
the signed anchor commitment through the chain-length guard
(:meth:`repro.schemes.tesla.TeslaReceiver._learn_key`), which the
late-join edge tests pin directly.

:func:`storm_channel_factory` supplies the adversarial half of the
tentpole: it arms a :class:`~repro.faults.BootstrapBurstForgery`
burst on exactly the (joiner, join-block) channel cells, so every
join is raced by forged packets timed at its bootstrap window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import SimulationError
from repro.faults import AdversarialChannel, AttackPlan, BootstrapBurstForgery
from repro.faults.churn import CHURN_KINDS, ChurnEvent, churn_storm
from repro.topology.linkloss import attack_seed

__all__ = [
    "BOOTSTRAP_RULES",
    "MembershipEvent",
    "MembershipPlan",
    "parse_churn_spec",
    "storm_channel_factory",
]

#: Seed displacement for the bootstrap-burst plan armed on a joiner's
#: join block, beyond the cell's loss seed and the base attack offset
#: (a prime, like every stride in the derivation).
_BOOTSTRAP_OFFSET = 32452843

#: How each scheme family bootstraps a late joiner, keyed by registry
#: name.  Serve blocks are self-contained, so "next signed root" and
#: "next dispersal boundary" both collapse to "first full block after
#: the join" — which the boundary-aligned plan guarantees.
BOOTSTRAP_RULES: Dict[str, str] = {
    "emss": "resynchronize at the next signed root (block boundary)",
    "ac": "resynchronize at the next signed root (block boundary)",
    "offsets": "resynchronize at the next signed root (block boundary)",
    "random": "resynchronize at the next signed root (block boundary)",
    "rohatgi": "resynchronize at the next signed root (block boundary)",
    "rohatgi-online": ("resynchronize at the next signed root "
                       "(block boundary)"),
    "wong-lam": "resynchronize at the next signed root (block boundary)",
    "sign-each": "every packet is independently verifiable; join anywhere",
    "saida": "resynchronize at the next dispersal boundary (block boundary)",
    "tesla": ("authenticate the signed anchor commitment, then catch up "
              "the key chain through the chain-length guard on the first "
              "disclosed key"),
}


@dataclass(frozen=True)
class MembershipEvent:
    """One membership transition bound to a concrete receiver id."""

    block: int
    kind: str
    receiver_id: str

    def __post_init__(self) -> None:
        if self.kind not in CHURN_KINDS:
            raise SimulationError(
                f"unknown membership kind {self.kind!r} "
                f"(known: {', '.join(CHURN_KINDS)})")
        if self.block < 1:
            raise SimulationError(
                f"membership events start at block 1, got {self.block}")

    def to_record(self) -> List[object]:
        """Canonical ``[block, kind, receiver_id]`` manifest row."""
        return [self.block, self.kind, self.receiver_id]


def parse_churn_spec(spec: str) -> Tuple[str, Tuple[float, ...]]:
    """Validate a ``--churn`` spec; returns ``(kind, numeric args)``.

    Grammar (all numbers optional where bracketed)::

        storm[:JOIN_RATE,LEAVE_RATE,CRASH_RATE]   Poisson churn per block
        flood:BLOCK                               all spares join at BLOCK
        flap:COUNT                                COUNT one-block members

    Cheap enough for ``ServeConfig.__post_init__`` to call eagerly, so
    a bad spec fails at config construction, not mid-session.
    """
    head, _, tail = spec.partition(":")
    if head == "storm":
        if not tail:
            return "storm", ()
        try:
            rates = tuple(float(part) for part in tail.split(","))
        except ValueError:
            rates = None
        if rates is None or len(rates) != 3 or any(r < 0 for r in rates):
            raise SimulationError(
                f"storm spec takes three non-negative rates "
                f"(storm:J,L,C), got {spec!r}")
        return "storm", rates
    if head == "flood":
        try:
            block = int(tail)
        except ValueError:
            block = -1
        if block < 1:
            raise SimulationError(
                f"flood spec takes a block >= 1 (flood:BLOCK), got {spec!r}")
        return "flood", (float(block),)
    if head == "flap":
        try:
            count = int(tail)
        except ValueError:
            count = -1
        if count < 1:
            raise SimulationError(
                f"flap spec takes a count >= 1 (flap:COUNT), got {spec!r}")
        return "flap", (float(count),)
    raise SimulationError(
        f"unknown churn spec {spec!r} (storm[:J,L,C] | flood:BLOCK "
        f"| flap:COUNT)")


@dataclass(frozen=True)
class MembershipPlan:
    """A validated, executable membership trajectory for one session.

    ``universe`` lists every identity the session may host (unique;
    universe index = position); the first ``initial`` of them are
    active at block 0.  ``events`` is the complete transition list —
    construction validates it against the invariants in the module
    docstring and precomputing anything would break frozen-ness, so
    the accessors filter on demand (plans are small).
    """

    universe: Tuple[str, ...]
    initial: int
    blocks: int
    events: Tuple[MembershipEvent, ...] = ()
    spec: Optional[str] = None

    def __post_init__(self) -> None:
        if len(set(self.universe)) != len(self.universe):
            raise SimulationError("universe ids must be unique")
        if not 1 <= self.initial <= len(self.universe):
            raise SimulationError(
                f"initial membership must be in [1, {len(self.universe)}], "
                f"got {self.initial}")
        if self.blocks < 1:
            raise SimulationError(f"need >= 1 block, got {self.blocks}")
        object.__setattr__(self, "events", tuple(sorted(
            self.events,
            key=lambda e: (e.block, CHURN_KINDS.index(e.kind),
                           e.receiver_id))))
        indices = {rid: i for i, rid in enumerate(self.universe)}
        active = set(self.universe[:self.initial])
        spares = set(self.universe[self.initial:])
        seen: Dict[Tuple[int, str], str] = {}
        for position, event in enumerate(self.events):
            if event.receiver_id not in indices:
                raise SimulationError(
                    f"event names unknown receiver {event.receiver_id!r}")
            if event.block >= self.blocks:
                raise SimulationError(
                    f"event at block {event.block} beyond the session's "
                    f"{self.blocks} blocks")
            key = (event.block, event.receiver_id)
            if key in seen:
                raise SimulationError(
                    f"receiver {event.receiver_id!r} has two events at "
                    f"block {event.block}")
            seen[key] = event.kind
            if event.kind == "join":
                if event.receiver_id not in spares:
                    raise SimulationError(
                        f"{event.receiver_id!r} cannot join: not in the "
                        f"spare pool (initial members never join, nobody "
                        f"joins twice)")
                spares.discard(event.receiver_id)
                active.add(event.receiver_id)
            else:
                if event.receiver_id not in active:
                    raise SimulationError(
                        f"{event.receiver_id!r} cannot {event.kind}: "
                        f"not active at block {event.block}")
                active.discard(event.receiver_id)
            # The survivor floor holds per block, after its leaves,
            # joins and crashes: a block's joiners may replace its
            # leavers (the floor churn_storm draws against).
            last_of_block = (position + 1 == len(self.events)
                             or self.events[position + 1].block
                             != event.block)
            if last_of_block and not active:
                raise SimulationError(
                    f"block {event.block} would leave the session "
                    f"empty; at least one member must survive")

    # -- accessors the serve loop drives ------------------------------

    @property
    def initial_ids(self) -> List[str]:
        """Identities active before block 0 streams."""
        return list(self.universe[:self.initial])

    def index_of(self, receiver_id: str) -> int:
        """The stable universe index channel seeding keys on."""
        try:
            return self.universe.index(receiver_id)
        except ValueError:
            raise SimulationError(f"unknown receiver {receiver_id!r}")

    def boundary_events(self, block: int) -> List[MembershipEvent]:
        """Leaves then joins applying at the boundary before ``block``."""
        return [e for e in self.events
                if e.block == block and e.kind in ("leave", "join")]

    def crash_events(self, block: int) -> List[MembershipEvent]:
        """Crashes striking after ``block`` is on the wire."""
        return [e for e in self.events
                if e.block == block and e.kind == "crash"]

    @property
    def join_blocks(self) -> Dict[str, int]:
        """Joiner id -> the block whose boundary admits it."""
        return {e.receiver_id: e.block for e in self.events
                if e.kind == "join"}

    def counts(self) -> Dict[str, int]:
        """Event totals by kind (stable keys for summaries/tests)."""
        totals = {kind: 0 for kind in CHURN_KINDS}
        for event in self.events:
            totals[event.kind] += 1
        return totals

    def final_active(self) -> List[str]:
        """Identities still active after the last block, sorted."""
        active = set(self.universe[:self.initial])
        for event in self.events:
            if event.kind == "join":
                active.add(event.receiver_id)
            else:
                active.discard(event.receiver_id)
        return sorted(active)

    def describe(self) -> Dict[str, object]:
        """Manifest-ready record: spec, totals and the full event list."""
        return {
            "spec": self.spec,
            "universe": len(self.universe),
            "initial": self.initial,
            "counts": self.counts(),
            "final_active": self.final_active(),
            "events": [event.to_record() for event in self.events],
        }

    # -- construction --------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, receivers: int, blocks: int,
                  seed: int) -> "MembershipPlan":
        """Build the plan a ``--churn`` spec describes.

        The universe doubles the initial membership (``r00..``
        continue past the initial count), so a storm always has spares
        to admit; the event stream comes from
        :func:`repro.faults.churn.churn_storm` on the session seed —
        deterministic, worker-count independent, and disjoint from the
        channel seed derivation by construction (the churn generator
        draws from seed-tree children, channels from affine strides).
        """
        kind, args = parse_churn_spec(spec)
        spare = receivers
        join_rate, leave_rate, crash_rate = 0.5, 0.25, 0.125
        flappers = 0
        flood_block = None
        if kind == "storm" and args:
            join_rate, leave_rate, crash_rate = args
        elif kind == "flood":
            flood_block = min(int(args[0]), max(1, blocks - 1))
            join_rate = leave_rate = crash_rate = 0.0
        elif kind == "flap":
            flappers = min(int(args[0]), spare, max(0, blocks - 1))
            join_rate = leave_rate = crash_rate = 0.0
        churn = churn_storm(seed, receivers, spare, blocks,
                            join_rate=join_rate, leave_rate=leave_rate,
                            crash_rate=crash_rate, flappers=flappers,
                            flood_block=flood_block)
        universe = tuple(f"r{i:02d}" for i in range(receivers + spare))
        events = tuple(
            MembershipEvent(e.block, e.kind, universe[e.member])
            for e in churn)
        return cls(universe=universe, initial=receivers, blocks=blocks,
                   events=events, spec=spec)


def storm_channel_factory(base_factory: Callable,
                          plan: MembershipPlan, seed: int,
                          burst: Optional[Callable[[], AttackPlan]] = None
                          ) -> Callable:
    """Race every join against forged packets at its bootstrap window.

    Wraps a :func:`~repro.topology.channel.topology_channel_factory`
    so the cell at (joiner's universe index, join block) gets an extra
    :class:`~repro.faults.BootstrapBurstForgery` plan — composed
    *after* the base mix's faults so the base per-cell streams are
    untouched — reseeded from the cell's attack seed
    (:func:`~repro.topology.linkloss.attack_seed`) plus
    :data:`_BOOTSTRAP_OFFSET`.  All other cells pass through
    unchanged, so a plan with no joins leaves the session
    byte-identical.
    """
    join_cells = {(plan.index_of(rid), block)
                  for rid, block in plan.join_blocks.items()}
    if burst is None:
        burst = lambda: AttackPlan((  # noqa: E731
            BootstrapBurstForgery(burst_rate=0.6, window=8, collide=True),))

    def build(receiver_index: int, block_id: int, loss_rate: float):
        channel = base_factory(receiver_index, block_id, loss_rate)
        if (receiver_index, block_id) not in join_cells:
            return channel
        burst_plan = burst()
        burst_plan.reseed(attack_seed(seed, receiver_index, block_id)
                          + _BOOTSTRAP_OFFSET)
        # Recompose rather than mutate: the base plan's members keep
        # their already-reseeded streams, the burst appends.
        combined = AttackPlan(channel.plan.faults + burst_plan.faults)
        return AdversarialChannel(channel.channel, combined)

    return build
