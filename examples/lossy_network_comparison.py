#!/usr/bin/env python3
"""The paper's Figure 8 comparison, rebuilt from live packet streams.

Where the paper computes its comparison analytically, this example
*transmits*: every scheme authenticates the same payload stream with
real hashes and signatures, the packets cross the same lossy channel
realizations, and receivers verify incrementally.  Analytic
predictions are printed alongside for each loss rate.

Run:  python examples/lossy_network_comparison.py
"""

from repro.analysis.compare import TeslaEnvironment, analytic_q_min
from repro.crypto.signatures import default_signer
from repro.network import BernoulliLoss, Channel, GaussianDelay
from repro.schemes import (
    AugmentedChainScheme,
    EmssScheme,
    RohatgiScheme,
    TeslaParameters,
    TeslaScheme,
    WongLamScheme,
)
from repro.simulation import run_session

BLOCK = 64
BLOCKS = 20
LOSS_RATES = (0.05, 0.2, 0.4)

# TESLA rides the same channel with a generous disclosure delay,
# matching the regime where the paper says it shines.
TESLA = TeslaScheme(TeslaParameters(interval=0.02, lag=25,
                                    chain_length=BLOCK * BLOCKS))
TESLA_ENV = TeslaEnvironment(t_disclose=TESLA.parameters.disclosure_delay,
                             mu=0.05, sigma=0.02)


def measure(scheme, p, seed):
    channel = Channel(loss=BernoulliLoss(p, seed=seed),
                      delay=GaussianDelay(mean=0.05, std=0.02,
                                          seed=seed + 1))
    return run_session(scheme, BLOCK, BLOCKS, channel,
                       signer=default_signer())


def main() -> None:
    contenders = [
        ("rohatgi", RohatgiScheme()),
        ("wong-lam", WongLamScheme()),
        ("emss(2,1)", EmssScheme(2, 1)),
        ("ac(3,3)", AugmentedChainScheme(3, 3)),
        ("tesla", TESLA),
    ]
    print(f"live comparison: {BLOCKS} blocks x {BLOCK} packets per scheme, "
          f"Gaussian delay 50 +- 20 ms\n")
    header = ("scheme".ljust(12)
              + "".join(f"p={p} sim/analytic".rjust(22) for p in LOSS_RATES))
    print(header)
    print("-" * len(header))
    for name, scheme in contenders:
        cells = []
        for index, p in enumerate(LOSS_RATES):
            stats = measure(scheme, p, seed=17 + index * 31)
            simulated = stats.overall_q
            if scheme is TESLA:
                from repro.analysis import tesla as tesla_analysis
                analytic = tesla_analysis.q_min(
                    BLOCK * BLOCKS, p, TESLA_ENV.t_disclose,
                    TESLA_ENV.mu, TESLA_ENV.sigma)
            else:
                analytic = analytic_q_min(scheme, BLOCK, p, TESLA_ENV)
            cells.append(f"{simulated:.3f}/{analytic:.3f}".rjust(22))
        print(name.ljust(12) + "".join(cells))
    print()
    print("sim = overall verified/received from live packets;")
    print("analytic = the paper's q_min formula (a per-worst-packet bound,")
    print("and for EMSS/AC an independence-approximation upper bound —")
    print("so sim and analytic bracket each other rather than coincide).")
    print("Shapes match Fig. 8: Rohatgi collapses, Wong-Lam is loss-proof,")
    print("EMSS tracks AC, and generously-provisioned TESLA wins at high p.")


if __name__ == "__main__":
    main()
