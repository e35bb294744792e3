"""The trial kernel: one loop behind every offline driver.

A run packetizes once for all its trials and receivers
(:meth:`~repro.schemes.base.Scheme.new_trial`): the paper's ``q_i`` is
a probability over loss draws for one fixed block, so every trial
sends the same packets.  Each trial fans them out to every receiver's
channel and checks each receiver's deliveries with a fresh verifier of
the scheme's own (:class:`~repro.schemes.base.Verifier`).
:func:`settle` tallies and audits it, for every scheme and for the
live receiver alike: a position counts as received when its packet
arrived intact or verified anyway.  Every delivery takes the
verifier's one :meth:`~repro.schemes.base.Verifier.receive` path, and
its rejection and replay counters are folded the same way on every
channel.  With ``attack`` set, deliveries cross an
:class:`~repro.faults.channel.AdversarialChannel` as wire bytes
(:meth:`~repro.schemes.base.Verifier.ingest_run` decodes them), and
every accepted packet is audited against the packet sent under its
sequence number: ``forged_accepted`` must stay 0.

From the run's packets the run also derives, once:

* one ``seq -> content digest`` map, from the scheme's own packetizing
  where it has them (:attr:`~repro.schemes.base.Trial.digests`), else
  from the verifier's :meth:`~repro.schemes.base.Verifier.content_digest`:
  the loss-only branch hands each packet's digest to ``receive``, which
  hashes nothing, and the attacked branch's soundness audit reads it;
* each packet's wire frame, which every attacked channel sends
  (:func:`~repro.faults.channel.frame_once`);
* a decode memo seeded with those frames, so no genuine buffer is
  decoded.  Tampered and forged buffers miss it and go through the
  strict decoder; their entries live in a per-trial copy and die with
  the trial.

Channels come from picklable factories called with the *global* trial
index, so trial ``t`` sees the same randomness wherever it runs and
any contiguous partition of the trial range merges back to the serial
result exactly (:func:`repro.parallel.parallel_trials`).
"""

from __future__ import annotations

from dataclasses import dataclass
from inspect import signature
from typing import AbstractSet, ClassVar, List, Mapping, Optional, Tuple

from repro.crypto.hashing import HashFunction, sha256
from repro.crypto.signatures import Signer, default_signer
from repro.exceptions import SimulationError
from repro.network.channel import Channel
from repro.network.delay import DelayModel, GaussianDelay
from repro.network.loss import BernoulliLoss, LossModel
from repro.obs.registry import get_registry
from repro.obs.spans import span
from repro.packets import Packet
from repro.schemes.base import PacketOutcome, Scheme, Verifier, WireMemo
from repro.simulation.sender import StreamSender
from repro.simulation.stats import SimulationStats

__all__ = ["SeededChannels", "FixedChannels", "run_trials", "run_session",
           "settle"]

#: Per-trial seed strides, all prime.  Untimed schemes draw loss at
#: ``LOSS_STRIDE``; timed schemes (TESLA) at ``TIMED_LOSS_STRIDE``, with
#: their delay stream at ``DELAY_STRIDE``.  Receiver ``r`` of a trial
#: offsets its seeds by ``r * RECEIVER_STRIDE``.
LOSS_STRIDE = 7919
TIMED_LOSS_STRIDE = 104729
DELAY_STRIDE = 1299709
RECEIVER_STRIDE = 15485863


@dataclass(frozen=True)
class SeededChannels:
    """Trial ``t``'s channel, with loss and delay seeded from ``t``.

    Loss is Bernoulli at ``loss_rate``, seeded ``seed + t *
    loss_stride``; delay is Gaussian, seeded ``seed + t *
    DELAY_STRIDE``, when ``delay_mean`` or ``delay_std`` is nonzero,
    else zero.  A given ``loss`` or ``delay`` model replaces the seeded
    one and is reset for every trial.
    """

    loss_rate: float
    seed: int
    loss_stride: int = LOSS_STRIDE
    delay_mean: float = 0.0
    delay_std: float = 0.0
    loss: Optional[LossModel] = None
    delay: Optional[DelayModel] = None

    @classmethod
    def for_scheme(cls, scheme: Scheme, loss_rate: float, seed: int,
                   delay_mean: float = 0.0, delay_std: float = 0.0,
                   loss: Optional[LossModel] = None,
                   delay: Optional[DelayModel] = None) -> "SeededChannels":
        """The schedule ``scheme`` is measured on.

        Timed schemes get their own loss stride and the delay model;
        the others a zero-delay channel.
        """
        if scheme.timed:
            return cls(loss_rate, seed, TIMED_LOSS_STRIDE, delay_mean,
                       delay_std, loss, delay)
        return cls(loss_rate, seed, loss=loss, delay=delay)

    def __call__(self, trial: int, receiver: int = 0) -> Channel:
        key = self.seed + receiver * RECEIVER_STRIDE
        loss = self.loss
        if loss is None:
            loss = BernoulliLoss(self.loss_rate,
                                 seed=key + trial * self.loss_stride)
        else:
            loss.reset()
        delay = self.delay
        if delay is not None:
            delay.reset()
        elif self.delay_mean > 0 or self.delay_std > 0:
            delay = GaussianDelay(self.delay_mean, self.delay_std,
                                  seed=key + trial * DELAY_STRIDE)
        return Channel(loss=loss, delay=delay)


@dataclass(frozen=True)
class FixedChannels:
    """Given channels, one per receiver: a single-trial session.

    Schemes draw fresh key material (there is no run seed).
    """

    channels: Tuple[Channel, ...]
    seed: ClassVar[Optional[int]] = None

    def __call__(self, trial: int, receiver: int = 0) -> Channel:
        return self.channels[receiver]


class _Replay:
    """The scheme a trial's sender sees: its every block is the run's.

    Each trial sends the run's packets through one
    ``StreamSender.send_block`` call, which packetizes nothing; the
    benchmark harness (``bench/tracing.py``) times an offline trial
    from one such call to the next.
    """

    __slots__ = ("packets",)

    def __init__(self, packets: List[Packet]) -> None:
        self.packets = packets

    def make_block(self, *args, **kwargs) -> List[Packet]:
        return self.packets


def run_trials(scheme: Scheme, block_size: int, first_trial: int,
               trial_count: int, channels, *, receivers: int = 1,
               blocks: int = 1, attack=None,
               signer: Optional[Signer] = None,
               hash_function: HashFunction = sha256,
               t_transmit: float = 0.01,
               max_buffered: Optional[int] = None) -> List[SimulationStats]:
    """Run trials ``first_trial .. first_trial + trial_count - 1``.

    Parameters
    ----------
    channels:
        ``channels(trial, receiver) -> Channel``, with a ``seed``
        attribute that pins the scheme's own key material
        (:class:`SeededChannels`, :class:`FixedChannels`,
        :class:`~repro.topology.conformance.TopologyChannels`).
    receivers:
        Receivers per trial, each with its own channel and verifier
        over the same sent packets.
    blocks:
        Blocks per trial (TESLA: one stream of ``block_size * blocks``
        packets).
    attack:
        ``attack(channel, trial) -> AdversarialChannel``, e.g.
        :class:`~repro.simulation.adversarial.AttackSchedule`.
    max_buffered:
        Message-buffer cap for the hash-chain verifier.  A scheme whose
        verifier has no such cap (SAIDA, TESLA) raises
        :class:`~repro.exceptions.SimulationError` before anything is
        delivered.

    Returns
    -------
    list of SimulationStats
        One accumulator per receiver.
    """
    if first_trial < 0 or trial_count < 0:
        raise SimulationError(
            f"trial range must be >= 0, got first {first_trial}, "
            f"count {trial_count}")
    for value, what in ((block_size, "packet per block"), (blocks, "block"),
                        (receivers, "receiver")):
        if value < 1:
            raise SimulationError(f"need >= 1 {what}, got {value}")
    signer = signer if signer is not None else default_signer()
    caps = {} if max_buffered is None else {"max_buffered": max_buffered}
    results = [SimulationStats() for _ in range(receivers)]
    attacked = attack is not None
    with span("wire.trials"):
        sent = scheme.new_trial(signer, block_size, blocks,
                                hash_function=hash_function,
                                t_transmit=t_transmit, seed=channels.seed)
        if caps and "max_buffered" not in signature(
                sent.new_verifier).parameters:
            raise SimulationError(
                f"{scheme.name} has no message-buffer cap: its verifier "
                f"takes no max_buffered")
        # Derived once per run from the packets every trial sends.
        packets = sent.packets
        digests = sent.digests
        if digests is None:
            digests = map(sent.new_verifier(**caps).content_digest, packets)
        digests = {packet.seq: digest
                   for packet, digest in zip(packets, digests)}
        if attacked:
            frames = {packet.seq: packet.to_wire() for packet in packets}
            seeded: WireMemo = {frames[packet.seq]:
                                (packet, digests[packet.seq])
                                for packet in packets}
        sender = StreamSender(_Replay(packets), signer, block_size)
        for trial in range(first_trial, first_trial + trial_count):
            sender.send_block(packets)
            verifiers = [sent.new_verifier(**caps) for _ in results]
            # Misses decoded in this trial stay in this trial.
            memo = dict(seeded) if attacked else None
            for receiver, (stats, verifier) in enumerate(
                    zip(results, verifiers)):
                channel = channels(trial, receiver)
                if not attacked:
                    deliveries = channel.transmit(packets)
                    receive = verifier.receive
                    for delivery in deliveries:
                        packet = delivery.packet
                        receive(packet, delivery.arrival_time,
                                digests[packet.seq])
                    intact = {delivery.packet.seq for delivery in deliveries}
                else:
                    channel = attack(channel, trial)
                    deliveries = channel.transmit_wire(packets, frames)
                    verifier.ingest_run(deliveries, memo=memo)
                    intact = {delivery.seq_hint for delivery in deliveries
                              if delivery.kind == "genuine"}
                verifier.finish()
                settle(verifier, sent.positions, intact,
                       digests if attacked else None, stats)
                stats.sent += channel.sent
                stats.dropped += channel.dropped
                stats.merge_buffer_peaks(verifier.message_buffer_peak,
                                         verifier.hash_buffer_peak)
                stats.undecodable += verifier.undecodable
                stats.forged_rejected += verifier.forged_rejected
                stats.replays_dropped += verifier.replays_dropped
                if not attacked:
                    # Nothing on a loss-only channel can fail a check:
                    # ``forged`` is that invariant and must read 0.
                    stats.forged += verifier.forged
                else:
                    stats.corrupted += channel.corrupted
                    stats.injected += channel.injected
                    stats.replayed += channel.replayed
    _count(results, trial_count, attacked)
    return results


def settle(verifier: Verifier, positions: Mapping[int, int],
           intact: AbstractSet[int],
           authentic: Optional[Mapping[int, bytes]],
           stats: SimulationStats) -> List[Optional[PacketOutcome]]:
    """Tally ``positions`` (seq -> position) and audit ``verifier``.

    A position counts as received when its seq is ``intact`` or
    verified.  Every digest accepted since the verifier's previous
    settle, under any seq, that differs from ``authentic`` (seq ->
    :meth:`~repro.schemes.base.Verifier.content_digest` of what was
    sent) counts in ``stats.forged_accepted``.  A loss-only channel
    hands the verifier the sent packets themselves, so there is
    nothing to audit: pass ``authentic=None``.  Returns each
    position's verdict record, in ``positions`` order.
    """
    verdict = verifier.verdict
    records = [verdict(seq) for seq in positions]
    stats.record_block([
        (position, True, True, record.delay)
        if record is not None and record.verified
        else (position, seq in intact, False, None)
        for (seq, position), record in zip(positions.items(), records)])
    if authentic is not None:
        for seq, digest in verifier.fresh_accepted():
            if authentic.get(seq) != digest:
                # Attacker content survived verification: the invariant
                # every security test keys on.
                stats.forged_accepted += 1
    return records


def _count(results: List[SimulationStats], trials: int,
           attacked: bool) -> None:
    registry = get_registry()
    if not registry.enabled:
        return
    total = SimulationStats.merge_all(results)
    registry.count("wire.trials", trials)
    registry.count("wire.packets_sent", total.sent)
    registry.count("wire.packets_dropped", total.dropped)
    registry.count("wire.packets_verified",
                   sum(t.verified for t in total.tallies.values()))
    if attacked:
        for name in ("corrupted", "injected", "replayed", "undecodable",
                     "forged_rejected", "forged_accepted"):
            registry.count(f"wire.packets_{name}", getattr(total, name))
        registry.count("wire.replays_dropped", total.replays_dropped)


def run_session(scheme: Scheme, block_size: int, blocks: int,
                channel: Channel, signer: Optional[Signer] = None,
                hash_function: HashFunction = sha256,
                t_transmit: float = 0.01) -> SimulationStats:
    """One authenticated stream of ``blocks`` blocks over ``channel``.

    A single kernel trial, for any scheme; statistics come back in a
    fresh :class:`SimulationStats` (fold several with
    :meth:`SimulationStats.merge`).
    """
    return run_trials(scheme, block_size, 0, 1, FixedChannels((channel,)),
                      blocks=blocks, signer=signer,
                      hash_function=hash_function, t_transmit=t_transmit)[0]
