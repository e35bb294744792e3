#!/usr/bin/env python3
"""Application view: in-order delivery of verified payloads.

Everything else in ``examples/`` measures probabilities; this shows
what an *application* on top of the library sees.  A sender streams
numbered messages in EMSS blocks; the channel drops and reorders; a
:class:`~repro.simulation.StreamReceiver` hands the application only
verified payloads, strictly in order, skipping declared-dead gaps at
block boundaries.

Run:  python examples/ordered_delivery.py
"""

from repro.crypto.signatures import default_signer
from repro.network import BernoulliLoss, Channel, GaussianDelay
from repro.schemes import EmssScheme
from repro.simulation import StreamReceiver, StreamSender, make_payloads

BLOCK = 16
BLOCKS = 6
LOSS = 0.15


def main() -> None:
    signer = default_signer()
    sender = StreamSender(EmssScheme(2, 1), signer, block_size=BLOCK)
    channel = Channel(loss=BernoulliLoss(LOSS, seed=5),
                      delay=GaussianDelay(mean=0.05, std=0.02, seed=6))

    delivered_log = []
    receiver = StreamReceiver(
        signer, on_deliver=lambda d: delivered_log.append(d.seq))

    print(f"streaming {BLOCKS} blocks x {BLOCK} messages at "
          f"{LOSS:.0%} loss with reordering...\n")
    sent = 0
    for block_index in range(BLOCKS):
        packets = sender.send_block(make_payloads(BLOCK, tag=b"msg"))
        sent += len(packets)
        batch_sizes = []
        for delivery in channel.transmit(packets):
            released = receiver.receive(delivery.packet,
                                        delivery.arrival_time)
            if released:
                batch_sizes.append(len(released))
        # Block over: give up on anything that can no longer verify.
        last_seq = packets[-1].seq
        receiver.finish_block(packets[0].block_id, last_seq)
        print(f"block {block_index}: release batches {batch_sizes}, "
              f"delivered so far {receiver.delivered}, "
              f"skipped {receiver.skipped}")

    print()
    print(f"sent {sent} packets; application received "
          f"{receiver.delivered} verified payloads in order, "
          f"{receiver.skipped} skipped as lost/unverifiable")
    assert delivered_log == sorted(delivered_log), "ordering violated!"
    print("delivery order is strictly increasing - no reordering, no "
          "unverified data, ever")
    print(f"effective goodput: {receiver.delivered}/{sent} "
          f"data packets (signature packets carry data too; "
          f"{receiver.skipped} casualties of loss and broken dependence)")


if __name__ == "__main__":
    main()
