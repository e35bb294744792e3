"""Wire-level Monte Carlo under active attack.

Passive runs measure loss tolerance; attacked runs measure what the
paper's Sec. 2 threat model actually demands — that a Dolev–Yao
attacker who can drop, tamper, inject, replay and reorder packets
gains *nothing* beyond the loss it inflicts.  An attacked trial of the
kernel (:func:`~repro.simulation.trials.run_trials` with ``attack``
set):

* transmits real wire bytes through an
  :class:`~repro.faults.channel.AdversarialChannel`;
* verifies them on the scheme verifier's defensive path (undecodable
  buffers are counted and discarded, never crash the receiver);
* tallies the usual per-position ``q_i`` statistics against the
  attacker's **ground truth** (a corrupted delivery counts as lost —
  the ``p_eff = 1 - (1-p)(1-c)`` model the adversarial conformance
  pass compares against);
* audits **soundness**: every accepted packet's content is compared
  against what the honest sender sent under its sequence number, and
  any mismatch increments ``stats.forged_accepted`` — which must stay 0.

Some verifiers *salvage* authentic content from partially tampered
deliveries: a bit flip confined to a SAIDA packet's share or a TESLA
packet's key-disclosure field destroys that field but leaves the
payload verifiable through redundant information elsewhere in the
stream.  Their content digest covers what verification binds (the
payload under its sequence number), and the tally treats "received"
as *delivered intact or verified* — salvage can only push empirical
``q_i`` above the corrupted-as-lost model, never below.

Determinism matches the passive runs: trial ``t``'s loss RNG,
attack-plan reseed and scheme key material depend only on the seed
and ``t``, so attacked runs shard across workers bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SimulationError
from repro.faults.channel import AdversarialChannel
from repro.faults.plan import AttackPlan
from repro.network.channel import Channel
from repro.schemes.base import Scheme
from repro.simulation.stats import SimulationStats
from repro.simulation.trials import SeededChannels, run_trials

__all__ = ["AttackSchedule", "adversarial_monte_carlo"]

#: Per-trial attack-plan seed: offset then stride, both prime, disjoint
#: from every channel-RNG stride so fault and loss streams never share
#: a key at any trial index.
_ATTACK_SEED_OFFSET = 104729
_ATTACK_SEED_STRIDE = 27644437


@dataclass(frozen=True)
class AttackSchedule:
    """``plan`` on every trial channel, reseeded from the trial index."""

    plan: AttackPlan
    seed: int

    def __call__(self, channel: Channel, trial: int) -> AdversarialChannel:
        self.plan.reseed(self.seed + _ATTACK_SEED_OFFSET
                         + trial * _ATTACK_SEED_STRIDE)
        return AdversarialChannel(channel, self.plan)


def adversarial_monte_carlo(scheme: Scheme, block_size: int,
                            loss_rate: float, plan: AttackPlan,
                            trials: int, seed: int = 7,
                            delay_mean: float = 0.0, delay_std: float = 0.0,
                            **kwargs) -> SimulationStats:
    """Aggregate ``trials`` attacked single-block trials of ``scheme``.

    ``delay_mean`` / ``delay_std`` apply to timed schemes (TESLA) only,
    whose analytic ``q_i`` depends on the delay model; the other
    keywords go to :func:`~repro.simulation.trials.run_trials`.
    """
    if trials < 1:
        raise SimulationError(f"need >= 1 trial, got {trials}")
    channels = SeededChannels.for_scheme(scheme, loss_rate, seed,
                                         delay_mean, delay_std)
    return run_trials(scheme, block_size, 0, trials, channels,
                      attack=AttackSchedule(plan, seed), **kwargs)[0]
