"""Extension: how tight is the paper's path-independence assumption?

Eq. 8–10 treat the failure of distinct root-paths as independent
events.  Paths through a chain share most of their vertices, so
failures are strongly positively correlated and the recurrence is an
*upper bound* on the true ``q_i`` (P(A∪B) <= P(A)+P(B)−P(A)P(B) under
positive correlation).  This experiment quantifies the gap for EMSS
``E_{2,1}`` and AC ``C_{3,3}`` by comparing the recurrences against
exact evaluation of the same graphs across block sizes.

The finding (recorded in EXPERIMENTS.md): the recurrence converges to
a fixed point independent of ``n`` while the exact probability decays
geometrically — for ``E_{2,1}`` at ``p = 0.1`` roughly as ``0.991^n``
(the probability of *no two consecutive losses* anywhere in the
block).  The paper's *qualitative* conclusions (scheme ordering,
parameter sensitivities) survive; its absolute ``q_min`` values for
large blocks do not.
"""

from __future__ import annotations

from repro.analysis import augmented_chain as ac_analysis
from repro.analysis import emss as emss_analysis
from repro.analysis import exact_chain
from repro.analysis.frontier import frontier_q_profile
from repro.analysis.montecarlo import graph_monte_carlo
from repro.experiments.common import ExperimentResult
from repro.schemes.augmented_chain import AugmentedChainScheme
from repro.schemes.emss import EmssScheme, GenericOffsetScheme

__all__ = ["run"]


def run(fast: bool = False) -> ExperimentResult:
    """Recurrence vs exact values across block sizes.

    For EMSS ``E_{2,1}`` the exact value comes from the closed Markov
    evaluation (:mod:`repro.analysis.exact_chain`), for AC ``C_{3,3}``
    and the spread offsets ``{1, 7}`` from the frontier engine
    (:mod:`repro.analysis.frontier`) — no sampling error at all.  Monte
    Carlo on the same graphs cross-checks both EMSS and AC.
    """
    result = ExperimentResult(
        experiment_id="ext-gap",
        title="Eq. 8/10 independence assumption vs exact evaluation",
    )
    p = 0.1
    sizes = [50, 200] if fast else [50, 100, 200, 400, 800]
    trials = 3000 if fast else 12000
    emss = EmssScheme(2, 1)
    ac = AugmentedChainScheme(3, 3)
    spread = GenericOffsetScheme((1, 7))
    for n in sizes:
        emss_rec = emss_analysis.q_min(n, 2, 1, p)
        emss_exact = exact_chain.exact_q_min(n, 2, p)
        emss_mc = graph_monte_carlo(emss.build_graph(n), p,
                                    trials=trials, seed=41).q_min
        ac_rec = ac_analysis.q_min(n, 3, 3, p)
        ac_exact = min(frontier_q_profile(ac.block_plan(n), p).values())
        ac_mc = graph_monte_carlo(ac.build_graph(n), p,
                                  trials=trials, seed=43).q_min
        spread_exact = min(
            frontier_q_profile(spread.block_plan(n), p).values())
        result.rows.append({
            "n": n,
            "EMSS Eq.8": emss_rec,
            "EMSS exact": emss_exact,
            "EMSS exact MC": emss_mc,
            "spread{1,7} exact": spread_exact,
            "AC Eq.10": ac_rec,
            "AC exact": ac_exact,
            "AC exact MC": ac_mc,
        })
        if emss_rec + 1e-9 < emss_exact:
            result.note(f"WARNING: Eq.8 below exact at n={n}")
        if ac_rec + 1e-9 < ac_exact:
            result.note(f"WARNING: Eq.10 below exact at n={n}")
        if abs(emss_mc - emss_exact) > 0.05:
            result.note(f"WARNING: MC disagrees with closed form at n={n}")
        if abs(ac_mc - ac_exact) > 0.05:
            result.note(f"WARNING: MC disagrees with the AC engine at n={n}")
    rate = exact_chain.asymptotic_decay_rate(2, p)
    result.note(
        f"the recurrences upper-bound the exact values (positive path "
        f"correlation); the exact E_21 q_min decays as ~{rate:.4f}^n "
        f"(largest transient eigenvalue of the run-length chain) while "
        f"the recurrence sits at its fixed point.  AC's skip edges slow "
        f"the true decay substantially — a real robustness difference "
        f"the independence approximation erases."
    )
    result.note(
        "the spread{1,7} column (exact frontier engine, same 2 hashes/"
        "packet as E_21) shows the same effect within EMSS itself: "
        "spreading the two copies apart dramatically slows the exact "
        "decay even under iid loss, while Eq. 9 — which is literally "
        "invariant in the spacing d — predicts no difference at all."
    )
    return result
