"""The receiving half of a live session.

Each :class:`ReceiverSession` consumes one transport subscription a
run at a time, hands each run of data frames whole to the defensive
:meth:`~repro.simulation.stream_receiver.StreamReceiver.ingest_run`
path, and on every control frame (one decode per prefixed run)
closes out the block: settles it against its in-process
:class:`BlockTruth` through the trial kernel's
:func:`~repro.simulation.trials.settle` (per-phase tallies and the
``forged_accepted`` audit), appends a canonical transcript line from
the verdict records, drops the block's verifier state, updates its
:class:`~repro.network.loss.LossEstimator` and emits a
:class:`LossReport` upstream.

Transcript lines are canonical JSON (sorted keys, fixed separators)
over values that derive only from seeds and virtual time — the
byte-identity surface the determinism regression pins.

:class:`ReceiverPool` fans N sessions out as asyncio tasks and gives
the service a per-block barrier: :meth:`ReceiverPool.wait_block`
resolves once every session has reported the block, which is what
makes bounded-queue drops and adaptation decisions deterministic.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.crypto.signatures import Signer
from repro.exceptions import SimulationError
from repro.faults import ATTACK_KINDS, WireDelivery
from repro.network.loss import LossEstimator
from repro.obs import get_registry
from repro.obs.lifecycle import NOISE_SEQ, get_lifecycle
from repro.serve.transport import (CONTROL_PREFIX, ControlFrame, Transport,
                                   decode_control)
from repro.simulation.receiver import WireMemo
from repro.simulation.stats import SimulationStats
from repro.simulation.stream_receiver import StreamReceiver
from repro.simulation.trials import settle

__all__ = ["BlockTruth", "LossReport", "ReceiverSession", "ReceiverPool",
           "transcript_line"]


_json_string = json.encoder.encode_basestring_ascii


def _json_time(when: object) -> str:
    """``json.dumps(when)``: a finite float is its ``repr``."""
    if type(when) is float and math.isfinite(when):
        return float.__repr__(when)
    return json.dumps(when)


def transcript_line(receiver_id: str, block_id: int, phase: str,
                    scheme: str, delivered: int,
                    events: Sequence[Tuple[int, str, object]]) -> str:
    """One transcript line, written directly.

    Byte for byte ``json.dumps(record, sort_keys=True,
    separators=(",", ":"))`` of the record ``{"r": receiver_id, "b":
    block_id, "phase": phase, "scheme": scheme, "delivered": delivered,
    "events": [[seq, code, time], ...]}``.  ``code`` is a one-letter
    tag (``l`` lost, ``v`` verified, ``a`` arrived); ``time`` is
    ``None`` or a number.  The slots of a block mostly verify on one
    ingest and so share one time object, whose text is kept between
    events.
    """
    parts = []
    last = last_text = None
    for seq, code, when in events:
        if when is None:
            parts.append(f'[{seq},"{code}",null]')
            continue
        if when is not last:
            last, last_text = when, _json_time(when)
        parts.append(f'[{seq},"{code}",{last_text}]')
    return (f'{{"b":{block_id},"delivered":{delivered},'
            f'"events":[{",".join(parts)}],"phase":{_json_string(phase)},'
            f'"r":{_json_string(receiver_id)},'
            f'"scheme":{_json_string(scheme)}}}')


@dataclass(frozen=True)
class BlockTruth:
    """The harness's ground truth for one (receiver, block) cell.

    ``intact``: the receiver's deliveries the adversary left untampered;
    ``digests``: every packet's authentic digest (one map per group and
    block, shared by reference).  Used only for accounting — never for
    verification, which runs purely on the wire bytes.
    """

    scheme: str
    phase: str
    intact: frozenset
    digests: Mapping[int, bytes]


#: Ground truth of the blocks in flight, keyed by (receiver, block).
Ledger = Dict[Tuple[str, int], BlockTruth]


@dataclass(frozen=True)
class LossReport:
    """One receiver's per-block feedback to the adaptive loop.

    ``subtree`` names the distribution-tree branch the receiver sits
    behind (its root-child on the primary tree) when the session runs
    over a topology; independent-channel sessions leave it equal to
    the receiver id, so folding by subtree degenerates to folding per
    receiver.

    ``verified`` counts the block's slots that actually authenticated
    (arrived *and* verified) — the numerator the health plane's SLO
    monitors test against the design's ``q`` target.
    """

    receiver_id: str
    block_id: int
    expected: int
    received: int
    subtree: str = ""
    verified: int = 0


class ReceiverSession:
    """One live receiver: defensive ingestion, accounting, reporting.

    Parameters
    ----------
    receiver_id:
        Stable identity used in reports and transcripts.
    signer:
        Verifier for block signatures (public part suffices).
    subtree:
        Distribution-tree branch label stamped on every
        :class:`LossReport`; defaults to the receiver id (independent
        channels — every receiver is its own branch).
    wire_memo:
        Decode memo shared with the other sessions of a
        :class:`ReceiverPool` (see
        :func:`~repro.simulation.receiver.ingest_run`).
    ledger:
        The pool's ground truth, filled in by the sender.
    """

    def __init__(self, receiver_id: str, signer: Signer,
                 subtree: Optional[str] = None,
                 wire_memo: Optional[WireMemo] = None,
                 ledger: Optional[Ledger] = None) -> None:
        self.receiver_id = receiver_id
        self.ledger = ledger if ledger is not None else {}
        self.subtree = subtree if subtree is not None else receiver_id
        self.stream = StreamReceiver(signer, wire_memo=wire_memo)
        self.estimator = LossEstimator()
        self.transcript: List[str] = []
        self.stats: Dict[str, SimulationStats] = {}
        self.reports: List[LossReport] = []
        self.blocks_closed = 0
        #: ``stream.delivered`` at the previous block close.
        self._delivered_at_close = 0

    async def run(self, transport: Transport,
                  report_sink: Callable[[LossReport], "asyncio.Future"]
                  ) -> None:
        """Consume the subscription until the final control frame.

        A run of data frames is ingested whole; a prefixed run holds
        one frame, decoded once, and ingested as data if it is not a
        control frame after all (a mangled one).
        """
        async for run in transport.subscribe(self.receiver_id):
            first = run[0]
            if first.data.startswith(CONTROL_PREFIX):
                frame = decode_control(first.data)
                if frame is not None:
                    if frame.final:
                        break
                    await report_sink(
                        self.close_block(frame, now=first.arrival_time))
                    continue
            tracer = get_lifecycle()
            self.stream.ingest_run(
                run, self._trace_ingest if tracer.enabled else None)

    #: Verifier ingest taxonomy -> lifecycle ``ingest`` stage status.
    _INGEST_STATUS = {
        "verified": "decode",
        "buffered": "buffer",
        "forged-reject": "reject",
        "slot-reject": "reject",
        "late-drop": "reject",
        "replay-drop": "replay",
        "undecodable": "undecodable",
    }

    #: Why a ``reject`` that is not a failed check was refused.
    _INGEST_DETAIL = {
        "slot-reject": "slot-full",
        "late-drop": "block-closed",
    }

    def _trace_ingest(self, delivery: WireDelivery) -> None:
        """The lifecycle ``ingest`` event of one just-ingested frame."""
        verifier = self.stream.verifier
        status = self._INGEST_STATUS.get(verifier.last_ingest)
        if status is None:
            return  # frame did not reach the verifier's taxonomy
        packet = verifier.last_ingest_packet
        if packet is not None:
            block_id, seq = packet.block_id, packet.seq
        else:
            # Undecodable garbage: attribute to the open block's noise
            # slot — there is no packet to name.
            block_id, seq = self.blocks_closed, NOISE_SEQ
        attrs = {}
        if delivery.kind in ATTACK_KINDS:
            attrs["kind"] = delivery.kind
        detail = self._INGEST_DETAIL.get(verifier.last_ingest)
        if detail is not None:
            attrs["detail"] = detail
        get_lifecycle().record(self.receiver_id, block_id, seq, "ingest",
                               status, delivery.arrival_time, **attrs)

    def close_block(self, frame: ControlFrame, now: float) -> LossReport:
        """Settle one finished block against its ledger entry.

        ``now`` is the control frame's arrival time; verdicts for
        non-verified slots are stamped with it so lifecycle traces stay
        monotone.
        """
        truth = self.ledger.get((self.receiver_id, frame.block_id))
        if truth is None:
            raise SimulationError(
                f"no ground truth for receiver {self.receiver_id!r} "
                f"block {frame.block_id}")
        base = frame.base_seq
        seqs = range(base, frame.last_seq + 1)
        stats = self.stats.setdefault(truth.phase, SimulationStats())
        records = settle(self.stream.verifier,
                         {seq: seq - base + 1 for seq in seqs},
                         truth.intact, truth.digests, stats)
        verified_count = 0
        events: List[Tuple[int, str, Optional[float]]] = []
        tracer = get_lifecycle()
        for seq, outcome in zip(seqs, records):
            if outcome is None:
                events.append((seq, "l", None))
                if tracer.enabled:
                    tracer.record(self.receiver_id, frame.block_id, seq,
                                  "verify", "lost", now)
            elif outcome.verified:
                verified_count += 1
                events.append((seq, "v", outcome.verified_time))
                if tracer.enabled:
                    tracer.record(self.receiver_id, frame.block_id, seq,
                                  "verify", "verified",
                                  outcome.verified_time, delay=outcome.delay)
            else:
                events.append((seq, "a", None))
                if tracer.enabled:
                    attrs = {"forged": True} if outcome.forged else {}
                    tracer.record(self.receiver_id, frame.block_id, seq,
                                  "verify", "arrived", now, **attrs)
        arrived = len(records) - records.count(None)
        expected = len(seqs)
        self.estimator.observe_block(expected - arrived, expected)
        released = self.stream.finish_block(frame.block_id, frame.last_seq)
        self.blocks_closed += 1
        self.transcript.append(transcript_line(
            self.receiver_id, frame.block_id, truth.phase, truth.scheme,
            len(released), events))
        report = LossReport(
            receiver_id=self.receiver_id, block_id=frame.block_id,
            expected=expected, received=arrived, subtree=self.subtree,
            verified=verified_count,
        )
        self.reports.append(report)
        delivered = self.stream.delivered
        registry = get_registry()
        if registry.enabled:
            registry.count("serve.block.closes", 1)
            # Ingest releases payloads too, not only the close.
            registry.count(f"serve.{self.receiver_id}.delivered",
                           delivered - self._delivered_at_close)
            registry.count(f"serve.{self.receiver_id}.arrived", arrived)
        self._delivered_at_close = delivered
        return report

    @property
    def forged_accepted(self) -> int:
        """Attacker content this receiver accepted, over every phase."""
        return sum(stats.forged_accepted for stats in self.stats.values())

    def transcript_bytes(self) -> bytes:
        """The canonical transcript: one JSON line per closed block."""
        return ("\n".join(self.transcript) + "\n").encode("utf-8")


class ReceiverPool:
    """Concurrent receiver sessions plus the per-block barrier.

    The pool owns the session *roster*, which churn makes dynamic:
    :meth:`admit` brings a late joiner up mid-session, :meth:`retire`
    detaches a graceful leaver (its task drains and exits), and
    :meth:`crash` kills a member mid-block.  ``sessions`` keeps every
    member that ever ran — departed receivers' transcripts, stats and
    audits stay part of the session record — while the barrier in
    :meth:`wait_block` releases on the *currently running* set only,
    so departures can never wedge it.

    Failure safety: a session task that raises records the first
    error, cancels its sibling tasks, and surfaces through
    :meth:`wait_block` / :meth:`join` — a crashing receiver fails the
    session loudly instead of hanging the barrier.

    Shared decode: every session ingests through one content-keyed
    wire memo owned by the pool, :attr:`wire_memo`.  The sender fills
    it as it frames (``SenderService(wire_memo=...)``), so a genuine
    frame is never decoded or hashed by any receiver; a buffer the
    sender did not frame (tampered, truncated, forged) is decoded and
    hashed once, by the first receiver that gets it, for all of them.
    Every entry is a pure function of its key either way: the codec is
    canonical, so the sender's packet and digest are exactly what
    decoding the bytes and hashing them would give.  The memo is
    dropped at every barrier, which bounds it to the blocks in flight.

    Parameters
    ----------
    receiver_ids:
        Initial session identities, one task each.
    signer:
        Shared verifier (stateless verification; safe to share).
    subtree_of:
        Receiver id -> distribution-tree branch label; receivers not
        in the mapping (or all of them, when it is omitted) report
        under their own id.
    """

    def __init__(self, receiver_ids: Sequence[str], signer: Signer,
                 subtree_of: Optional[Mapping[str, str]] = None) -> None:
        if not receiver_ids:
            raise SimulationError("need at least one receiver")
        if len(set(receiver_ids)) != len(receiver_ids):
            raise SimulationError("receiver ids must be unique")
        self._signer = signer
        self._subtree_of = subtree_of if subtree_of is not None else {}
        self.wire_memo: WireMemo = {}
        self.ledger: Ledger = {}
        self.sessions: Dict[str, ReceiverSession] = {}
        for receiver_id in receiver_ids:
            self.sessions[receiver_id] = self._build_session(receiver_id)
        self._reports: Dict[int, Dict[str, LossReport]] = {}
        self._events: Dict[int, asyncio.Event] = {}
        self._active: Dict[str, asyncio.Task] = {}
        self._transport: Optional[Transport] = None
        self._started = False
        self._failure: Optional[BaseException] = None
        self._failed = asyncio.Event()

    def _build_session(self, receiver_id: str) -> ReceiverSession:
        return ReceiverSession(
            receiver_id, self._signer,
            subtree=self._subtree_of.get(receiver_id),
            wire_memo=self.wire_memo, ledger=self.ledger)

    def start(self, transport: Transport) -> None:
        """Spawn one task per session (requires a running event loop)."""
        if self._started:
            raise SimulationError("pool already started")
        self._started = True
        self._transport = transport
        for session in self.sessions.values():
            self._spawn(session)

    def _spawn(self, session: ReceiverSession) -> None:
        task = asyncio.create_task(
            session.run(self._transport, self._on_report),
            name=f"serve-{session.receiver_id}")
        self._active[session.receiver_id] = task
        task.add_done_callback(
            lambda done, rid=session.receiver_id: self._on_task_done(
                rid, done))

    def _on_task_done(self, receiver_id: str, task: asyncio.Task) -> None:
        if self._active.get(receiver_id) is task:
            del self._active[receiver_id]
        if task.cancelled():
            return
        error = task.exception()
        if error is None:
            return
        if self._failure is None:
            self._failure = error
        self._failed.set()
        # Cancel the siblings: one broken receiver must not leave the
        # rest of the pool (and the barrier) waiting forever.
        for other in self._active.values():
            other.cancel()

    @property
    def active_ids(self) -> List[str]:
        """Currently running session identities, sorted."""
        return sorted(self._active)

    # -- membership ----------------------------------------------------

    def admit(self, receiver_id: str) -> ReceiverSession:
        """Bring a late joiner up (its transport endpoint must exist).

        The new session joins the barrier set immediately; its first
        block is whichever streams next.
        """
        if receiver_id in self.sessions:
            raise SimulationError(
                f"receiver {receiver_id!r} already has a session "
                f"(members never rejoin under one identity)")
        session = self._build_session(receiver_id)
        self.sessions[receiver_id] = session
        if self._started:
            self._spawn(session)
        return session

    async def retire(self, receiver_id: str) -> None:
        """Detach a graceful leaver: drain its task and keep its record.

        Call after the transport endpoint is closed — the close
        sentinel is what ends the subscription.  The leaver's
        transcript, stats and audit counters stay in ``sessions``.
        """
        task = self._active.pop(receiver_id, None)
        if task is None:
            if receiver_id not in self.sessions:
                raise SimulationError(f"unknown receiver {receiver_id!r}")
            return  # already finished (e.g. failure path)
        await task

    async def crash(self, receiver_id: str) -> None:
        """Kill a member mid-block: cancel its task, abandon its queue.

        The victim never settles the in-flight block — no report, no
        transcript line — exactly a process that died without notice.
        """
        task = self._active.pop(receiver_id, None)
        if task is None:
            raise SimulationError(
                f"receiver {receiver_id!r} is not running")
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass

    # -- the barrier ---------------------------------------------------

    async def _on_report(self, report: LossReport) -> None:
        per_block = self._reports.setdefault(report.block_id, {})
        per_block[report.receiver_id] = report
        self._maybe_release(report.block_id)

    def _maybe_release(self, block_id: int) -> None:
        per_block = self._reports.get(block_id, {})
        if self._active and self._active.keys() <= per_block.keys():
            self._event(block_id).set()

    def _event(self, block_id: int) -> asyncio.Event:
        event = self._events.get(block_id)
        if event is None:
            event = asyncio.Event()
            self._events[block_id] = event
        return event

    def _check_failure(self) -> None:
        if self._failure is not None:
            raise self._failure

    async def wait_block(self, block_id: int) -> List[LossReport]:
        """Barrier: every *running* session's report, sorted by id.

        Re-evaluates the running set on entry (a crash just before
        settling shrinks it) and races the barrier against session
        failure — a receiver that raises mid-block surfaces here
        instead of deadlocking the loop.  Passing the barrier drops
        the shared wire memo and every ledger entry of the block,
        crash victims' included.
        """
        self._check_failure()
        self._maybe_release(block_id)
        event = self._event(block_id)
        if not event.is_set():
            barrier = asyncio.ensure_future(event.wait())
            failed = asyncio.ensure_future(self._failed.wait())
            try:
                await asyncio.wait((barrier, failed),
                                   return_when=asyncio.FIRST_COMPLETED)
            finally:
                barrier.cancel()
                failed.cancel()
            self._check_failure()
        self.wire_memo.clear()
        for key in [key for key in self.ledger if key[1] == block_id]:
            del self.ledger[key]
        self._events.pop(block_id, None)
        reports = self._reports.pop(block_id, {})
        return [reports[receiver_id] for receiver_id in sorted(reports)]

    async def join(self) -> None:
        """Wait for the surviving session tasks (after the final frame).

        Surfaces the first session error and cancels the rest — the
        teardown counterpart of :meth:`wait_block`'s failure race.
        """
        self._check_failure()
        tasks = list(self._active.values())
        if not tasks:
            return
        done, pending = await asyncio.wait(
            tasks, return_when=asyncio.FIRST_EXCEPTION)
        failure: Optional[BaseException] = None
        for task in done:
            if task.cancelled():
                continue
            error = task.exception()
            if error is not None and failure is None:
                failure = error
        if failure is not None:
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending)
            raise failure

    def merged_stats(self) -> Dict[str, SimulationStats]:
        """Per-phase stats folded across receivers (sorted, exact)."""
        merged: Dict[str, SimulationStats] = {}
        for receiver_id in sorted(self.sessions):
            for phase, stats in self.sessions[receiver_id].stats.items():
                base = merged.get(phase)
                merged[phase] = stats if base is None else base.merge(stats)
        return merged

    @property
    def forged_accepted(self) -> int:
        """Total attacker content accepted across the pool (must be 0)."""
        return sum(s.forged_accepted for s in self.sessions.values())
