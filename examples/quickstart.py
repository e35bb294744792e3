#!/usr/bin/env python3
"""Quickstart: analyze and simulate a hash-chained authentication scheme.

Covers the library's core loop in ~60 lines:

1. pick a scheme (EMSS ``E_{2,1}``),
2. inspect its dependence-graph and the Sec. 3 metrics,
3. evaluate the paper's analytic ``q_min`` (Eq. 9 recurrence),
4. validate it against exact Monte Carlo on the graph,
5. run real authenticated packets through a lossy channel.

Run:  python examples/quickstart.py
"""

from repro import EmssScheme, analytic_q_min, compute_metrics, graph_monte_carlo
from repro.core.render import to_ascii
from repro.crypto.signatures import default_signer
from repro.network import BernoulliLoss, Channel
from repro.simulation import run_session


def main() -> None:
    block_size = 64
    loss_rate = 0.15
    scheme = EmssScheme(m=2, d=1)

    # --- 1-2: the dependence-graph and its metrics ---------------------
    graph = scheme.build_graph(block_size)
    graph.validate()
    metrics = compute_metrics(graph, l_sign=128, l_hash=16)
    print(f"scheme: {scheme.name}, block of {block_size} packets")
    print(f"  edges (carried hashes): {graph.edge_count}")
    print(f"  mean hashes/packet:     {metrics.mean_hashes:.2f}")
    print(f"  overhead bytes/packet:  {metrics.overhead_bytes:.1f}")
    print(f"  receiver delay (slots): {metrics.delay_slots}")
    print(f"  message buffer (pkts):  {metrics.message_buffer}")
    print()
    print("graph of a tiny 8-packet block, for intuition:")
    print(to_ascii(scheme.build_graph(8)))
    print()

    # --- 3: the paper's analytic q_min ---------------------------------
    analytic = analytic_q_min(scheme, block_size, loss_rate)
    print(f"Eq. 9 recurrence q_min at p={loss_rate}: {analytic:.4f}")

    # --- 4: exact Monte Carlo on the same graph ------------------------
    mc = graph_monte_carlo(graph, loss_rate, trials=20000, seed=1)
    print(f"exact Monte Carlo q_min:              {mc.q_min:.4f}")
    print("(the recurrence assumes independent paths, so it upper-bounds"
          " the exact value)")
    print()

    # --- 5: real packets over a lossy channel --------------------------
    channel = Channel(loss=BernoulliLoss(loss_rate, seed=42))
    stats = run_session(scheme, block_size, blocks=20, channel=channel,
                        signer=default_signer())
    print(f"wire-level session over 20 blocks at p={loss_rate}:")
    print(f"  observed loss rate: {stats.observed_loss_rate:.3f}")
    print(f"  empirical q_min:    {stats.q_min:.4f}")
    print(f"  mean verify delay:  {stats.mean_delay * 1000:.1f} ms")
    print(f"  peak message buffer:{stats.message_buffer_peak:5d} packets")
    print(f"  forged packets:     {stats.forged}")


if __name__ == "__main__":
    main()
