#!/usr/bin/env python3
"""Video broadcast over a bursty Internet path: EMSS vs augmented chain.

The paper motivates signature amortization with "news/video
broadcasting over the Internet" and notes that "most of the packet
loss on the Internet is bursty in nature" — the problem the augmented
chain was designed for.  This example streams video-like blocks
through a Gilbert-Elliott channel and compares:

* EMSS ``E_{2,1}`` (hash copies in adjacent packets),
* EMSS with spread offsets (same overhead, copies 1 and 7 apart),
* the augmented chain ``C_{3,3}``,

all at identical mean loss rates but increasing burst lengths.

Run:  python examples/video_broadcast_emss.py
"""

from repro.crypto.signatures import default_signer
from repro.network import Channel, GilbertElliottLoss
from repro.schemes import (
    AugmentedChainScheme,
    EmssScheme,
    GenericOffsetScheme,
    SaidaScheme,
)
from repro.simulation import run_session


BLOCK = 96          # packets per signed block (~one GOP)
BLOCKS = 30         # blocks per trial
MEAN_LOSS = 0.10


def measure(scheme, burst_length, seed):
    """Verification statistics of a scheme at the given mean burst length."""
    loss = GilbertElliottLoss.from_rate_and_burst(
        MEAN_LOSS, max(burst_length, 1.0001), seed=seed)
    return run_session(scheme, BLOCK, BLOCKS, Channel(loss=loss),
                       signer=default_signer())


def main() -> None:
    schemes = [
        EmssScheme(2, 1),
        GenericOffsetScheme((1, 7)),
        AugmentedChainScheme(3, 3),
        SaidaScheme(k_fraction=0.6),
    ]
    bursts = [1, 4, 8, 16]
    print(f"video broadcast: {BLOCKS} blocks x {BLOCK} packets, "
          f"mean loss {MEAN_LOSS:.0%}, Gilbert-Elliott bursts\n")
    header = "scheme".ljust(16) + "".join(
        f"burst={b}".rjust(12) for b in bursts)
    print(header)
    print("-" * len(header))
    for scheme in schemes:
        cells = []
        for index, burst in enumerate(bursts):
            stats = measure(scheme, burst, seed=100 + index)
            cells.append(f"{stats.overall_q:.3f}".rjust(12))
        print(scheme.name.ljust(16) + "".join(cells))
    print()
    print("overall verification ratio (verified/received).  At equal mean")
    print("loss, adjacent-copy EMSS degrades as bursts lengthen — one")
    print("burst severs both hash copies — while spread offsets and the")
    print("augmented chain ride out bursts shorter than their spread;")
    print("the erasure-coded SAIDA block only counts losses and barely")
    print("notices burstiness at all (at ~40% more bytes per packet).")

    # Bonus: what a receiver needs to provision.
    stats = measure(AugmentedChainScheme(3, 3), 8, seed=7)
    print()
    print(f"receiver provisioning for ac(3,3) at burst=8:")
    print(f"  peak message buffer: {stats.message_buffer_peak} packets")
    print(f"  worst verify delay:  {stats.max_delay * 1000:.0f} ms "
          f"(signature at block end)")


if __name__ == "__main__":
    main()
