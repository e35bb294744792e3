#!/usr/bin/env python3
"""Designing a hash-chaining topology for a target network (Sec. 5).

The paper's complaint: parameters for EMSS/AC were picked by
trial-and-error, with "no effective way of choosing these parameters".
This example is the remedy — given a channel loss rate and a
``q_min`` target, it runs all of Section 5's construction methods and
prints what each costs:

* optimizer over EMSS ``(m, d)`` and AC ``(a, b)`` parameter spaces,
* the dynamic-programming offset-policy search (min edges/packet),
* greedy tree-plus-edges construction under an out-degree cap,
* probabilistic edge placement tuned by bisection.

Run:  python examples/scheme_designer.py
"""

from repro.design import (
    DesignConstraints,
    greedy_design,
    optimize_ac,
    optimize_emss,
    search_offset_policy,
    tune_edge_probability,
)

BLOCK = 120
LOSS = 0.25
TARGET = 0.9


def main() -> None:
    print(f"designing for: block={BLOCK}, channel loss p={LOSS}, "
          f"q_min target {TARGET}\n")
    rows = []

    point = optimize_emss(BLOCK, LOSS, TARGET)
    rows.append((f"EMSS (m,d)={point.parameters}", point.cost,
                 point.q_min, "Eq. 9"))

    point = optimize_ac(BLOCK, LOSS, TARGET)
    rows.append((f"AC (a,b)={point.parameters}", point.cost,
                 point.q_min, "Eq. 10"))

    policy = search_offset_policy(BLOCK, LOSS, TARGET, max_offset=24,
                                  max_edges=5)
    rows.append((f"DP offset policy A={policy.offsets}",
                 float(policy.edges_per_packet), policy.q_min, "Eq. 9"))

    constraints = DesignConstraints(loss_rate=LOSS, q_min_target=TARGET,
                                    max_out_degree=6, mc_trials=4000)
    greedy = greedy_design(BLOCK, constraints, max_extra_edges=8 * BLOCK)
    rows.append(("greedy tree+edges",
                 greedy.graph.edge_count / BLOCK, greedy.q_min,
                 "exact MC"))

    tuned = tune_edge_probability(BLOCK, LOSS, TARGET, trials=4000, seed=3)
    rows.append((f"probabilistic p_x={tuned.edge_probability:.4f}",
                 tuned.mean_hashes, tuned.q_min, "exact MC"))

    print(f"{'construction':38s} {'hashes/pkt':>10s} {'q_min':>8s}  evaluator")
    print("-" * 72)
    for name, cost, q_min, evaluator in rows:
        print(f"{name:38s} {cost:10.2f} {q_min:8.3f}  {evaluator}")
    print()
    print("note the evaluator column: 'exact MC' designs meet the target")
    print("under the true joint loss distribution; 'Eq. 9/10' designs meet")
    print("it under the paper's independence approximation, which is an")
    print("upper bound (run the ext-gap experiment for the difference).")

    # Delay-constrained variant: a live stream that can buffer 10 packets.
    policy = search_offset_policy(BLOCK, LOSS, TARGET, max_offset=24,
                                  max_edges=5, max_delay_slots=10)
    print()
    print(f"with a 10-slot buffer budget the DP search picks "
          f"A={policy.offsets} (q_min {policy.q_min:.3f})")


if __name__ == "__main__":
    main()
