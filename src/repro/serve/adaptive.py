"""Closing the loop: loss feedback into the parameter optimizer.

The paper's complaint about EMSS/AC — "there is no effective way of
choosing these parameters" — was answered offline by
:mod:`repro.design.optimizer`.  :class:`AdaptiveController` makes the
choice *live*: it folds every receiver's per-block loss report into
its group's :class:`~repro.network.loss.LossEstimator` (one pool-wide
group by default, one group per subtree under subtree adaptation),
quantizes the estimate up onto a design grid, and re-selects that
group's design whenever the grid point moves.  Quantizing up keeps
the adaptation conservative (design for at least the observed loss)
and, more importantly, deterministic: tiny float differences in the
estimate cannot flip the chosen parameters, only a genuine grid-point
crossing can.

The controller searches exactly the design table's space: it
quantizes onto :data:`~repro.design.grid.DEFAULT_P_GRID` and selects
with the optimizers' own defaults under
:data:`~repro.design.grid.DEFAULT_DELAY_BUDGET` — the lattice the
default :class:`~repro.design.table.TableSpec` covers — and keeps each
group's answer as a :class:`~repro.design.optimizer.DesignPoint`, the
same record a table cell holds.  Selection prefers a precomputed
:class:`~repro.design.service.DesignService` when one is wired in
(``--design-table``): a grid-point crossing then costs one O(1) table
lookup instead of an inline optimizer run, with the inline search kept
only as a *counted* cold-miss fallback (``design.inline.calls`` /
``design.service.fallbacks`` on the live registry — a warm-table soak
asserts both stay zero).  A served point and an inline one are equal
field for field, so the two paths fly byte-identical sessions.

Every decision is recorded as an :class:`AdaptationEvent` so sessions
can assert on the switching behaviour (the acceptance test pins the
staircase p=0.05 → emss(1,2) ... p=0.3 → emss(2,1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.design.grid import DEFAULT_DELAY_BUDGET, DEFAULT_P_GRID, quantize_up
from repro.design.optimizer import DesignPoint, optimize_ac, optimize_emss
from repro.design.service import DesignCoverageError, DesignService
from repro.exceptions import DesignError, SimulationError
from repro.network.loss import LossEstimator, PooledLossEstimator
from repro.obs.registry import get_registry
from repro.schemes.base import Scheme
from repro.schemes.registry import make_scheme
from repro.serve.receiver import LossReport

__all__ = ["AdaptationEvent", "AdaptiveController", "CONTROLLER_FAMILIES"]

#: Design families the live controllers can fly: schemes whose
#: parameters are an integer pair the registry can instantiate from
#: a ``family(x,y)`` spec.  The wider zoo (offset policies,
#: probabilistic graphs) is served by the same table to offline
#: consumers via :class:`~repro.design.service.DesignService` directly.
CONTROLLER_FAMILIES = ("emss", "ac")


@dataclass(frozen=True)
class AdaptationEvent:
    """One group's controller decision, taken after observing ``block_id``.

    ``group`` names the receiver group (subtree) the decision applies
    to; the pool-wide controller's one group is ``None``.
    """

    block_id: int
    p_hat: float
    p_design: float
    scheme: str
    parameters: Tuple[int, int]
    predicted_q_min: float
    cost: float
    switched: bool
    feasible: bool = True
    group: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form for :class:`~repro.obs.RunManifest` storage."""
        record = {
            "block_id": self.block_id,
            "p_hat": self.p_hat,
            "p_design": self.p_design,
            "scheme": self.scheme,
            "parameters": list(self.parameters),
            "predicted_q_min": self.predicted_q_min,
            "cost": self.cost,
            "switched": self.switched,
            "feasible": self.feasible,
        }
        if self.group is not None:
            record["group"] = self.group
        return record


class _GroupDesign:
    """One group's loss estimate, current design and selection counters."""

    def __init__(self, estimator: LossEstimator) -> None:
        self.estimator = estimator
        self.p_design = 0.0
        self.point: Optional[DesignPoint] = None
        self.scheme: Optional[Scheme] = None
        self.events: List[AdaptationEvent] = []
        self.table_hits = 0
        self.table_misses = 0
        self.inline_calls = 0
        self.refresh_requests = 0


class AdaptiveController:
    """Per-block scheme re-selection from loss reports, per receiver group.

    Receivers are partitioned into groups by ``group_of`` and every
    group flies its own design: its own loss estimator, grid point and
    scheme.  A shared spine edge degrades its whole subtree at once, so
    one pool-wide estimate either over-provisions the clean branches or
    under-protects the hot one; keyed by subtree label, each subtree
    gets the cheapest design meeting the ``q_min`` target *at its own
    loss rate*.  Without ``group_of`` there is one group, labelled
    ``None``: the classic pool-wide controller.

    Each decision reads the group's window rate — the exact rate over
    the last ``window`` packet slots pooled across its receivers,
    stable under bursty per-block loss — lowers it by one binomial
    standard error of slack, and quantizes the result *up* onto
    :data:`~repro.design.grid.DEFAULT_P_GRID` (clamped at the top).
    Without the slack, a channel running at exactly a grid-point rate
    hovers epsilon above it by sampling noise and flaps a full grid
    step.

    Parameters
    ----------
    block_size:
        ``n`` handed to the optimizer (payloads per block).
    q_min_target:
        Authentication-probability floor the design must meet.
    initial_p:
        Loss rate the session is designed for before any feedback.
    family:
        Scheme family the controller designs within: ``"emss"``
        (default) or ``"ac"`` (see :data:`CONTROLLER_FAMILIES`).
    design_service:
        Precomputed :class:`~repro.design.service.DesignService` to
        consult before any inline search.  Covered lookups (including
        authoritative infeasibility) never run an optimizer; uncovered
        points fall back inline and are counted
        (``design.service.fallbacks``).  ``None`` keeps the classic
        always-inline behaviour.
    group_of:
        Receiver id -> group label (see
        :meth:`~repro.topology.graph.Topology.subtree_of`).  Every
        event a group's design emits carries its label.  ``None``
        (default) puts every receiver in the one group ``None``.
    membership_aware:
        Use a :class:`~repro.network.loss.PooledLossEstimator` keyed
        by receiver id instead of one flat window, so a member that
        leaves can be retired (:meth:`retire_receiver`) and its stale
        samples fold out of its group's estimate immediately rather
        than aging out over the next ``window`` slots.
    """

    def __init__(self, block_size: int, q_min_target: float = 0.75,
                 initial_p: float = 0.05,
                 family: str = "emss",
                 design_service: Optional[DesignService] = None,
                 group_of: Optional[Mapping[str, str]] = None,
                 membership_aware: bool = False) -> None:
        if block_size < 1:
            raise SimulationError(f"block_size must be >= 1, got {block_size}")
        if family not in CONTROLLER_FAMILIES:
            raise SimulationError(
                f"controller family must be one of "
                f"{', '.join(CONTROLLER_FAMILIES)}, got {family!r}")
        if group_of is not None and not group_of:
            raise SimulationError("need at least one receiver group")
        self.family = family
        self.design_service = design_service
        self.block_size = block_size
        self.q_min_target = q_min_target
        self.membership_aware = membership_aware
        self.group_of: Dict[str, str] = dict(group_of or {})
        self.events: List[AdaptationEvent] = []
        labels = sorted(set(self.group_of.values())) or [None]
        self._designs: Dict[Optional[str], _GroupDesign] = {}
        for label in labels:
            design = _GroupDesign(PooledLossEstimator() if membership_aware
                                  else LossEstimator())
            design.p_design = self.quantize(initial_p)
            design.point = self._optimize(design, design.p_design)
            if design.point is None:
                raise DesignError(
                    f"initial design infeasible at p={design.p_design}")
            design.scheme = make_scheme(design.point.scheme_spec)
            self._designs[label] = design

    # ------------------------------------------------------------------

    def quantize(self, p_hat: float) -> float:
        """Round a loss estimate up onto the design grid (clamped)."""
        return quantize_up(p_hat, DEFAULT_P_GRID, clamp=True)

    def _optimize(self, design: _GroupDesign,
                  p_design: float) -> Optional[DesignPoint]:
        """Select the design for ``p_design``: table first, inline last.

        A covered table cell is authoritative either way — a feasible
        cell becomes the point, an infeasible one returns ``None``
        (keep flying, retry next block) without ever running an
        optimizer.  Only an *uncovered* request falls through to the
        inline search, and that fallback is counted so warm-table
        sessions can assert it never happened.
        """
        registry = get_registry()
        if self.design_service is not None:
            try:
                point = self.design_service.lookup(
                    p_design, self.block_size, self.q_min_target,
                    family=self.family,
                    max_delay_slots=DEFAULT_DELAY_BUDGET)
            except DesignCoverageError:
                design.table_misses += 1
                if registry.enabled:
                    registry.count("design.service.fallbacks")
            else:
                design.table_hits += 1
                return point
        design.inline_calls += 1
        if registry.enabled:
            registry.count("design.inline.calls")
        # Called by module-global name (not bound at import), so the
        # optimizers can be wrapped where this module looks them up.
        optimize = optimize_ac if self.family == "ac" else optimize_emss
        try:
            return optimize(self.block_size, p_design, self.q_min_target,
                            max_delay_slots=DEFAULT_DELAY_BUDGET)
        except DesignError:
            return None

    # ------------------------------------------------------------------

    def schemes(self) -> Dict[Optional[str], Scheme]:
        """Each group's next-block scheme, keyed by group label."""
        return {label: design.scheme
                for label, design in self._designs.items()}

    def design(self, label: Optional[str] = None) -> _GroupDesign:
        """One group's state: ``estimator``, ``p_design``, ``point``,
        ``scheme``, ``events`` and its selection counters."""
        try:
            return self._designs[label]
        except KeyError:
            raise SimulationError(f"no receiver group {label!r}")

    def _gauges(self, design: _GroupDesign) -> Dict[str, object]:
        point = design.point
        m, d = point.parameters
        last = design.events[-1] if design.events else None
        return {
            "p_hat": last.p_hat if last is not None else 0.0,
            "p_design": design.p_design,
            "scheme": point.scheme_spec,
            "m": m,
            "d": d,
            "predicted_q_min": point.q_min,
            "cost": point.cost,
            "decisions": len(design.events),
            "switches": sum(1 for e in design.events if e.switched),
            "table_hits": design.table_hits,
            "table_misses": design.table_misses,
            "inline_fallbacks": design.inline_calls,
            "refresh_requests": design.refresh_requests,
        }

    def gauges(self) -> Dict[str, object]:
        """Current controller state as a flat timeseries row.

        Emitted under the :data:`~repro.obs.timeseries.CONTROLLER_ROW`
        pseudo-receiver so live dashboards can plot the adaptation
        staircase next to the per-receiver loss estimates.  With more
        than the one ``None`` group, every group's gauges appear
        prefixed by its label.
        """
        if None in self._designs:
            return self._gauges(self._designs[None])
        row: Dict[str, object] = {"groups": len(self._designs)}
        for label, design in self._designs.items():
            for name, value in self._gauges(design).items():
                row[f"{label}.{name}"] = value
        return row

    def observe(self, block_id: int,
                reports: Sequence[LossReport]) -> List[AdaptationEvent]:
        """Fold one block's reports; maybe re-select each group's design.

        Reports are partitioned by group and folded in sorted receiver
        order, so every estimator's state is independent of task
        scheduling.  Every group that reported takes one decision, in
        sorted group order; the decisions are returned and appended to
        :attr:`events`.
        """
        by_group: Dict[Optional[str], List[LossReport]] = {}
        for report in reports:
            label = self.group_of.get(report.receiver_id)
            if label not in self._designs:
                raise SimulationError(
                    f"report from {report.receiver_id!r} has no "
                    f"receiver group")
            by_group.setdefault(label, []).append(report)
        events = [self._decide(label, block_id, by_group[label])
                  for label in self._designs if label in by_group]
        self.events.extend(events)
        return events

    def _decide(self, label: Optional[str], block_id: int,
                reports: Sequence[LossReport]) -> AdaptationEvent:
        design = self._designs[label]
        estimator = design.estimator
        pooled = isinstance(estimator, PooledLossEstimator)
        for report in sorted(reports, key=lambda r: r.receiver_id):
            lost = report.expected - report.received
            if pooled:
                estimator.observe_block(report.receiver_id, lost,
                                        report.expected)
            else:
                estimator.observe_block(lost, report.expected)
        p_hat = estimator.window_rate
        fill = estimator.window_fill
        slack = 0.0
        if fill > 0:
            slack = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / fill) / fill)
        p_design = self.quantize(max(0.0, p_hat - slack))
        switched = False
        feasible = True
        if p_design != design.p_design:
            point = self._optimize(design, p_design)
            if point is None:
                # Infeasible at the requested operating point: keep
                # flying on the current parameters rather than stall
                # the stream; the design point does not advance, so
                # the next block retries.
                feasible = False
            else:
                switched = point.parameters != design.point.parameters
                design.point = point
                design.p_design = p_design
                if switched:
                    design.scheme = make_scheme(point.scheme_spec)
        point = design.point
        event = AdaptationEvent(
            block_id=block_id, p_hat=p_hat, p_design=p_design,
            scheme=point.family, parameters=point.parameters,
            predicted_q_min=point.q_min, cost=point.cost,
            switched=switched, feasible=feasible, group=label,
        )
        design.events.append(event)
        return event

    def envelope_counts(self) -> Tuple[int, int]:
        """Exact window counts ``(lost, fill)`` summed over every group.

        These are the integer counts inside the estimators' sliding
        windows — the health plane's drift detector compares them
        against :meth:`lattice_top` in cross-multiplied integers so no
        float rounding can flip an off-lattice verdict.
        """
        lost = fill = 0
        for design in self._designs.values():
            lost += design.estimator.window_lost
            fill += design.estimator.window_fill
        return (lost, fill)

    def lattice_top(self) -> float:
        """Top of the design lattice this controller can serve.

        The design table's grid when a service is wired (its coverage
        is what "off-lattice" means operationally), the default grid
        the controller quantizes onto otherwise.
        """
        if self.design_service is not None:
            return self.design_service.p_grid[-1]
        return DEFAULT_P_GRID[-1]

    def request_refresh(self) -> bool:
        """Counted re-lookup hook for off-lattice drift alerts.

        The health plane calls this when the observed envelope leaves
        the lattice: every group re-runs its selection at its current
        design point (a table re-lookup when a service is wired — the
        seam a future *background table rebuild* lands in) and each
        group's request is counted on the instance and the live
        registry (``design.refresh.requests``), so soaks can assert
        the hook fired.  Returns whether every group got a feasible
        selection back.
        """
        registry = get_registry()
        feasible = True
        for design in self._designs.values():
            design.refresh_requests += 1
            if registry.enabled:
                registry.count("design.refresh.requests")
            point = self._optimize(design, design.p_design)
            if point is None:
                feasible = False
                continue
            if point.parameters != design.point.parameters:
                design.scheme = make_scheme(point.scheme_spec)
            design.point = point
        return feasible

    def retire_receiver(self, receiver_id: str) -> bool:
        """Fold a departed member's samples out of its group's estimate.

        Only meaningful with a membership-aware estimator — there the
        leaver's per-receiver window is dropped wholesale, so its last
        (possibly stale or partial) blocks cannot bias the next design
        decision.  Returns whether anything was removed; a flat
        estimator always answers ``False`` (samples age out instead).
        """
        design = self._designs.get(self.group_of.get(receiver_id))
        if design is None or not isinstance(design.estimator,
                                            PooledLossEstimator):
            return False
        return design.estimator.retire(receiver_id)
