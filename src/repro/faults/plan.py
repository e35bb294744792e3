"""Attack plans: an ordered, reseedable bundle of fault models.

An :class:`AttackPlan` is what Monte-Carlo drivers thread through
their trial loops: one :meth:`AttackPlan.reseed` call per trial pins
every member model's RNG off the trial's global index, so attacked
runs shard across workers with bit-for-bit identical results — the
same contract :class:`~repro.network.loss.LossModel` gives passive
loss.  Plans are plain picklable objects; the process pool ships one
per task and reseeds it locally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.exceptions import SimulationError
from repro.faults.models import FaultModel

__all__ = ["AttackPlan"]

#: Seed spacing between member models so sibling fault streams never
#: share a RNG key (a prime, like the trial strides in the runners).
_FAULT_SEED_STRIDE = 15485863


def _overrides(fault: FaultModel, hook: str) -> bool:
    """Does ``fault``'s class replace the base no-op ``hook``?"""
    return getattr(type(fault), hook) is not getattr(FaultModel, hook)


@dataclass
class AttackPlan:
    """Per-slot fault schedule: the models applied to every delivery.

    Models are applied in tuple order by
    :class:`~repro.faults.channel.AdversarialChannel` — corruption
    models compose left to right, injections and replays accumulate.

    Construction also records, once, which members override which
    :class:`~repro.faults.models.FaultModel` hook, in plan order:
    :attr:`jitterers`, :attr:`corrupters`, and :attr:`injectors` —
    ``(model, forges, replays)`` for every member overriding ``forge``
    or ``replay``.  The channel calls only those; the base-class hooks
    are no-ops with no draw, so skipping them changes nothing.
    """

    faults: Tuple[FaultModel, ...] = ()

    def __post_init__(self) -> None:
        self.faults = tuple(self.faults)
        for fault in self.faults:
            if not isinstance(fault, FaultModel):
                raise SimulationError(
                    f"attack plan members must be FaultModels, got "
                    f"{type(fault).__name__}")
        self.jitterers = tuple(fault for fault in self.faults
                               if _overrides(fault, "jitter"))
        self.corrupters = tuple(fault for fault in self.faults
                                if _overrides(fault, "corrupt"))
        stagers = [(fault, _overrides(fault, "forge"),
                    _overrides(fault, "replay")) for fault in self.faults]
        self.injectors = tuple(hooks for hooks in stagers
                               if hooks[1] or hooks[2])

    def reset(self) -> None:
        """Reset every member model (new trial, same seeds)."""
        for fault in self.faults:
            fault.reset()

    def reseed(self, seed: Optional[int]) -> None:
        """Re-key every member model off one trial seed, then reset.

        Each member gets ``seed + stride * (index + 1)`` so two models
        of the same class in one plan still draw independent streams.
        """
        for index, fault in enumerate(self.faults):
            fault.reseed(None if seed is None
                         else seed + _FAULT_SEED_STRIDE * (index + 1))

    @property
    def corruption_rate(self) -> float:
        """Probability a delivery is tampered by at least one model.

        Corruption decisions are independent across models, so the
        composed rate is ``1 - prod(1 - rate_i)`` — the ``c`` in the
        effective loss rate ``p_eff = 1 - (1-p)(1-c)`` that the
        adversarial conformance pass compares against.
        """
        survive = 1.0
        for fault in self.faults:
            survive *= 1.0 - fault.corruption_rate
        return 1.0 - survive
