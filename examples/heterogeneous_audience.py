#!/usr/bin/env python3
"""One multicast stream, a heterogeneous audience.

The paper's setting is a single source and "a large number of
recipients" who join from wildly different network positions.  The
sender authenticates each block exactly once; every receiver verifies
independently against its own loss and delay.  This example fans one
EMSS stream out to five receiver profiles and reports what each
experiences — then asks the design question the paper poses: which
parameters serve the *worst* member of the audience?

Run:  python examples/heterogeneous_audience.py
"""

from repro.crypto.signatures import default_signer
from repro.design import optimize_emss
from repro.network import (
    BernoulliLoss,
    Channel,
    GaussianDelay,
    GilbertElliottLoss,
)
from repro.schemes import EmssScheme
from repro.simulation import FixedChannels, run_trials

BLOCK = 48
BLOCKS = 25

AUDIENCE = {
    "campus-lan": Channel(),
    "home-dsl": Channel(loss=BernoulliLoss(0.03, seed=11),
                        delay=GaussianDelay(0.02, 0.005, seed=12)),
    "congested-wifi": Channel(loss=BernoulliLoss(0.15, seed=21),
                              delay=GaussianDelay(0.05, 0.02, seed=22)),
    "mobile-bursty": Channel(
        loss=GilbertElliottLoss.from_rate_and_burst(0.12, 6.0, seed=31),
        delay=GaussianDelay(0.12, 0.04, seed=32)),
    "satellite": Channel(loss=BernoulliLoss(0.3, seed=41),
                         delay=GaussianDelay(0.3, 0.05, seed=42)),
}


def main() -> None:
    scheme = EmssScheme(2, 1)
    # One kernel trial: the sender packetizes once, every receiver gets
    # its own channel and verifier over the same packets.
    per_receiver = run_trials(scheme, BLOCK, 0, 1,
                              FixedChannels(tuple(AUDIENCE.values())),
                              receivers=len(AUDIENCE), blocks=BLOCKS,
                              signer=default_signer())
    results = dict(zip(AUDIENCE, per_receiver))
    print(f"{scheme.name}: one sender, {len(AUDIENCE)} receivers, "
          f"{per_receiver[0].sent} packets, one signature per block\n")
    header = (f"{'receiver':16s} {'loss seen':>10s} {'q_min':>8s} "
              f"{'overall q':>10s} {'mean delay':>11s}")
    print(header)
    print("-" * len(header))
    for name, stats in results.items():
        print(f"{name:16s} {stats.observed_loss_rate:>9.1%} "
              f"{stats.q_min:>8.3f} {stats.overall_q:>10.3f} "
              f"{stats.mean_delay * 1000:>9.0f}ms")
    worst = min(results, key=lambda name: results[name].q_min)
    print(f"\nworst-served receiver: {worst}")

    # Design for the worst path: what would it take to give the
    # satellite receiver q_min >= 0.9?
    point = optimize_emss(BLOCK, 0.3, 0.9)
    print(f"to give that path q_min >= 0.9 (Eq. 9), EMSS needs "
          f"(m,d) = {point.parameters} — {point.cost:.0f} hashes/packet "
          f"for everyone, the multicast tax of the weakest link")


if __name__ == "__main__":
    main()
