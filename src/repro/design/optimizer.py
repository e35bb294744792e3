"""Scheme-parameter optimization (the paper's motivating complaint).

"Although there are some schemes [EMSS, AC] which have improved
robustness against loss and use reasonable overheads, their
performances could vary widely from one set of parameters to another.
Besides, there is no effective way of choosing these parameters."

With the analytic evaluators in hand, choosing parameters *is*
effective: these functions sweep EMSS ``(m, d)`` and AC ``(a, b)``
spaces, discard points missing the ``q_min`` target (and optional
delay budget), and return the cheapest survivor — cost being hashes
per packet first, receiver delay second — as a :class:`DesignPoint`,
the one design record the frontend, the design table and the live
controller all share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.analysis import augmented_chain as ac_analysis
from repro.analysis import emss as emss_analysis
from repro.exceptions import AnalysisError, DesignError

__all__ = ["DesignPoint", "optimize_emss", "optimize_ac"]


@dataclass(frozen=True)
class DesignPoint:
    """One normalized answer of the design program.

    Attributes
    ----------
    family:
        Which construction produced it (see
        :data:`~repro.design.frontend.DESIGN_FAMILIES`).
    scheme_spec:
        Registry spec string a live session can instantiate with
        :func:`~repro.schemes.registry.make_scheme` (``"emss(2,1)"``,
        ``"ac(2,2)"``, ``"offsets(1,5,9)"``, ``"random(0.18,7)"``).
        ``None`` for the heuristic family, whose output is an explicit
        graph (carried in ``extra["edges"]``) rather than a policy.
    parameters:
        The numeric knobs behind the spec — ``(m, d)``, ``(a, b)``,
        the offset set, or ``(p_x,)``.
    q_min:
        Predicted worst-vertex authentication probability at the
        design's ``(n, p)``.
    cost:
        Mean hashes per packet.
    delay_slots:
        Deterministic receiver delay / buffer reach implied by the
        design, in packet slots.
    extra:
        Family-specific detail worth persisting (offsets, tuned edge
        probability, heuristic edge list).
    """

    family: str
    scheme_spec: Optional[str]
    parameters: Tuple[float, ...]
    q_min: float
    cost: float
    delay_slots: int
    extra: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (the table's cell payload)."""
        payload: Dict[str, object] = {
            "family": self.family,
            "scheme": self.scheme_spec,
            "parameters": list(self.parameters),
            "q_min": self.q_min,
            "cost": self.cost,
            "delay_slots": self.delay_slots,
        }
        if self.extra:
            payload["extra"] = dict(self.extra)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "DesignPoint":
        """Rebuild a point serialized by :meth:`to_dict`."""
        try:
            return cls(
                family=str(payload["family"]),
                scheme_spec=(None if payload["scheme"] is None
                             else str(payload["scheme"])),
                parameters=tuple(payload["parameters"]),
                q_min=float(payload["q_min"]),
                cost=float(payload["cost"]),
                delay_slots=int(payload["delay_slots"]),
                extra=dict(payload.get("extra", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DesignError(f"malformed design point payload: {exc}")


def _pair_point(family: str, x: int, y: int, q: float, cost: float,
                reach: int) -> DesignPoint:
    return DesignPoint(family=family, scheme_spec=f"{family}({x},{y})",
                       parameters=(x, y), q_min=q, cost=cost,
                       delay_slots=reach)


def optimize_emss(n: int, p: float, q_min_target: float,
                  m_values: Iterable[int] = range(1, 7),
                  d_values: Iterable[int] = (1, 2, 4, 8, 16, 32),
                  max_delay_slots: Optional[int] = None) -> DesignPoint:
    """Cheapest EMSS ``(m, d)`` meeting the target at ``(n, p)``.

    EMSS costs ``m`` hashes/packet and delays verification up to the
    end of the block; its *buffer*-relevant reach is ``m·d`` slots,
    used here as the delay figure of merit (Fig. 7's observation that
    delay and buffers scale with ``d``).
    """
    best: Optional[DesignPoint] = None
    for m in sorted(set(m_values)):
        for d in sorted(set(d_values)):
            reach = m * d
            if max_delay_slots is not None and reach > max_delay_slots:
                continue
            q = emss_analysis.q_min(n, m, d, p)
            if q < q_min_target:
                continue
            candidate = _pair_point("emss", m, d, q, float(m), reach)
            if best is None or (candidate.cost, candidate.delay_slots) < (
                    best.cost, best.delay_slots):
                best = candidate
        if best is not None and best.cost <= m:
            break  # larger m can only cost more
    if best is None:
        raise DesignError(
            f"no EMSS parameters meet q_min >= {q_min_target} at n={n}, p={p}"
        )
    return best


def optimize_ac(n: int, p: float, q_min_target: float,
                a_values: Iterable[int] = range(2, 11),
                b_values: Iterable[int] = range(1, 11),
                max_delay_slots: Optional[int] = None) -> DesignPoint:
    """Cheapest AC ``(a, b)`` meeting the target at ``(n, p)``.

    Every AC packet is linked to two others (2 hashes/packet), so cost
    ties are broken by the first-level reach ``a·(b+1)`` — the span
    that drives buffers and delay.
    """
    best: Optional[DesignPoint] = None
    for a in sorted(set(a_values)):
        for b in sorted(set(b_values)):
            reach = a * (b + 1)
            if max_delay_slots is not None and reach > max_delay_slots:
                continue
            try:
                q = ac_analysis.q_min(n, a, b, p)
            except AnalysisError:
                continue  # block too small for this (a, b)
            if q < q_min_target:
                continue
            candidate = _pair_point("ac", a, b, q, 2.0, reach)
            if best is None or candidate.delay_slots < best.delay_slots:
                best = candidate
    if best is None:
        raise DesignError(
            f"no AC parameters meet q_min >= {q_min_target} at n={n}, p={p}"
        )
    return best
