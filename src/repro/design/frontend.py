"""Unified optimizer frontend: one design program over the scheme zoo.

The paper's Sec. 5 frames construction as a single optimization —
minimize edges subject to ``q_i >= q_min`` — but the toolkit grew one
entry point per method: :func:`~repro.design.optimizer.optimize_emss`,
:func:`~repro.design.optimizer.optimize_ac`,
:func:`~repro.design.dp.search_offset_policy`,
:func:`~repro.design.probabilistic.tune_edge_probability` and
:func:`~repro.design.heuristic.greedy_design`, each with its own
result type.  :func:`design_point` dispatches across all of them and
returns every answer as a :class:`~repro.design.optimizer.DesignPoint`
— the one design record the precomputed
:class:`~repro.design.table.DesignTable` is made of, the
:class:`~repro.design.service.DesignService` serves and the live
controller flies.  The EMSS and AC optimizers already return it; the
other families are normalized into it here.

Infeasibility is uniform too: every family raises
:class:`~repro.exceptions.DesignError` when no design within its
budgets reaches the target, so table builds can record the *fact* of
infeasibility at a lattice point instead of crashing.
"""

from __future__ import annotations

from typing import Optional

from repro.core.metrics import max_deterministic_delay
from repro.design.constraints import DesignConstraints
from repro.design.dp import search_offset_policy
from repro.design.heuristic import greedy_design
from repro.design.optimizer import DesignPoint, optimize_ac, optimize_emss
from repro.design.probabilistic import tune_edge_probability
from repro.exceptions import DesignError

__all__ = ["DESIGN_FAMILIES", "DesignPoint", "design_point"]

#: Families :func:`design_point` dispatches across.  ``emss``, ``ac``
#: and ``offset`` are pure analytic searches (Eq. 9/10 evaluators —
#: deterministic and cheap enough to grid); ``probabilistic`` and
#: ``heuristic`` evaluate candidates by seeded Monte Carlo and are
#: meant for offline builds, not inline control.
DESIGN_FAMILIES = ("emss", "ac", "offset", "probabilistic", "heuristic")


def _offset_point(n: int, p: float, q_target: float,
                  max_delay_slots: Optional[int]) -> DesignPoint:
    policy = search_offset_policy(
        n, p, q_target, max_offset=min(64, n - 1),
        max_delay_slots=max_delay_slots)
    spec = "offsets(%s)" % ",".join(str(o) for o in policy.offsets)
    return DesignPoint(family="offset", scheme_spec=spec,
                       parameters=tuple(policy.offsets),
                       q_min=policy.q_min,
                       cost=float(policy.edges_per_packet),
                       delay_slots=max(policy.offsets),
                       extra={"offsets": list(policy.offsets)})


def _probabilistic_point(n: int, p: float, q_target: float,
                         max_delay_slots: Optional[int], seed: int,
                         mc_trials: int) -> DesignPoint:
    tuned = tune_edge_probability(n, p, q_target, trials=mc_trials,
                                  seed=seed, max_span=max_delay_slots)
    spec = f"random({tuned.edge_probability:.6g},{seed})"
    delay = max_delay_slots if max_delay_slots is not None else n - 1
    return DesignPoint(family="probabilistic", scheme_spec=spec,
                       parameters=(tuned.edge_probability,),
                       q_min=tuned.q_min, cost=tuned.mean_hashes,
                       delay_slots=delay,
                       extra={"edge_probability": tuned.edge_probability,
                              "repairs": tuned.repairs, "seed": seed})


def _heuristic_point(n: int, p: float, q_target: float,
                     max_delay_slots: Optional[int], seed: int,
                     mc_trials: int) -> DesignPoint:
    constraints = DesignConstraints(loss_rate=p, q_min_target=q_target,
                                    max_out_degree=6, mc_trials=mc_trials,
                                    mc_seed=seed)
    built = greedy_design(n, constraints)
    if not built.satisfied:
        raise DesignError(
            f"greedy construction missed q_min >= {q_target} at n={n}, "
            f"p={p} (achieved {built.q_min:.4f})")
    return DesignPoint(
        family="heuristic", scheme_spec=None, parameters=(),
        q_min=built.q_min, cost=built.graph.edge_count / n,
        delay_slots=max_deterministic_delay(built.graph),
        extra={"edges": sorted(built.graph.edges()),
               "added_edges": len(built.added_edges), "seed": seed})


def design_point(family: str, n: int, p: float, q_target: float,
                 max_delay_slots: Optional[int] = None,
                 seed: int = 0, mc_trials: int = 1500) -> DesignPoint:
    """Run one family's design program and normalize the answer.

    Parameters
    ----------
    family:
        One of :data:`DESIGN_FAMILIES`.
    n, p, q_target, max_delay_slots:
        The lattice point: block size, channel loss rate, required
        ``q_min`` and the delay/buffer budget in packet slots.
    seed, mc_trials:
        Monte Carlo settings for the sampled families (ignored by the
        analytic ones) — the table build derives ``seed`` from its
        deterministic seed tree so rebuilds are byte-identical.

    Raises
    ------
    DesignError
        On an unknown family, or when the family has no design within
        its budgets meeting the target at this lattice point.
    """
    if family == "emss":
        return optimize_emss(n, p, q_target, max_delay_slots=max_delay_slots)
    if family == "ac":
        return optimize_ac(n, p, q_target, max_delay_slots=max_delay_slots)
    if family == "offset":
        return _offset_point(n, p, q_target, max_delay_slots)
    if family == "probabilistic":
        return _probabilistic_point(n, p, q_target, max_delay_slots,
                                    seed, mc_trials)
    if family == "heuristic":
        return _heuristic_point(n, p, q_target, max_delay_slots,
                                seed, mc_trials)
    raise DesignError(
        f"unknown design family {family!r}; known: "
        f"{', '.join(DESIGN_FAMILIES)}")
