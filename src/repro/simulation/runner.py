"""Wire-level Monte Carlo: real packets through real verification.

The slow, high-fidelity counterpart to the vectorized graph-level
estimator in :mod:`repro.analysis.montecarlo`.  Use it to validate
that the byte-level implementation matches the graph abstraction; use
the graph-level estimator for large parameter sweeps.

:func:`wire_monte_carlo` is one call to the trial kernel
(:func:`~repro.simulation.trials.run_trials`): trial ``t``'s channel
RNG derives from the config seed and the global index ``t`` only, so
:func:`repro.parallel.parallel_trials` shards the same run with
identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import SimulationError
from repro.faults.plan import AttackPlan
from repro.network.delay import DelayModel
from repro.network.loss import LossModel
from repro.schemes.base import Scheme
from repro.simulation.adversarial import AttackSchedule
from repro.simulation.stats import SimulationStats
from repro.simulation.trials import SeededChannels, run_trials

__all__ = ["wire_monte_carlo", "WireTrialConfig"]


@dataclass(frozen=True)
class WireTrialConfig:
    """Shared knobs for wire-level Monte Carlo runs."""

    block_size: int = 32
    blocks_per_trial: int = 1
    trials: int = 20
    loss_rate: float = 0.2
    t_transmit: float = 0.01
    seed: int = 7


def wire_monte_carlo(scheme: Scheme, config: WireTrialConfig,
                     loss: Optional[LossModel] = None,
                     delay: Optional[DelayModel] = None,
                     attack: Optional[AttackPlan] = None) -> SimulationStats:
    """Aggregate ``trials`` wire-level sessions of ``scheme``.

    Each trial gets an independent channel (fresh loss RNG derived from
    the config seed; custom ``loss``/``delay`` models are reset per
    trial) but statistics accumulate into one
    :class:`SimulationStats`, so ``stats.q_profile()`` is the empirical
    per-position ``q_i`` across all trials.  ``attack`` runs the trials
    through an adversarial channel, the plan reseeded per trial.
    """
    if config.trials < 1:
        raise SimulationError(f"need >= 1 trial, got {config.trials}")
    channels = SeededChannels.for_scheme(scheme, config.loss_rate,
                                         config.seed, loss=loss, delay=delay)
    schedule = None if attack is None else AttackSchedule(attack, config.seed)
    return run_trials(scheme, config.block_size, 0, config.trials, channels,
                      blocks=config.blocks_per_trial, attack=schedule,
                      t_transmit=config.t_transmit)[0]
