"""Property tests: the receiver's running hash-buffer level is exact.

``ChainReceiver`` keeps the Sec. 3 hash-buffer level — trusted hashes
whose packet has not arrived — as a running count.  The reference
here is the brute-force scan it replaced.  Multi-block EMSS and
augmented-chain streams with random loss and reordering go through
one ``StreamReceiver``, on the trusting path and on the defensive wire
path under the pollution and dos attack mixes; after every call the
count must equal the scan and the recorded peak the scan's maximum.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.conformance import attack_mix
from repro.crypto.signatures import HmacStubSigner
from repro.faults.channel import AdversarialChannel
from repro.network.channel import Channel
from repro.schemes.augmented_chain import AugmentedChainScheme
from repro.schemes.emss import EmssScheme
from repro.simulation.sender import make_payloads
from repro.simulation.stream_receiver import StreamReceiver

_SIGNER = HmacStubSigner(key=b"prop-hash-buffer")
_SCHEMES = {"emss": EmssScheme(2, 1), "ac": AugmentedChainScheme(3, 3)}


def scan_pending_hashes(receiver) -> int:
    """Brute-force hash-buffer level: trusted seqs with no outcome yet."""
    return sum(1 for seq in receiver._trusted if seq not in receiver.outcomes)


@st.composite
def streams(draw):
    """A scheme, a delivery path and per-block (size, arrivals) draws."""
    scheme = draw(st.sampled_from(sorted(_SCHEMES)))
    path = draw(st.sampled_from(["receive", "pollution", "dos"]))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    blocks = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        n = draw(st.integers(min_value=2, max_value=20))
        # About one packet in five is lost.
        kept = [i for i in range(n)
                if draw(st.integers(min_value=0, max_value=4)) > 0]
        blocks.append((n, draw(st.permutations(kept))))
    return scheme, path, seed, blocks


class TestHashBufferLevel:
    @given(streams())
    @settings(max_examples=150, deadline=None)
    def test_running_level_matches_scan(self, case):
        name, path, seed, blocks = case
        scheme = _SCHEMES[name]
        stream = StreamReceiver(_SIGNER)
        verifier = stream.verifier
        channel = None
        if path != "receive":
            plan = attack_mix(path)
            plan.reseed(seed)
            channel = AdversarialChannel(Channel(), plan)
        peak = 0

        def check():
            nonlocal peak
            level = scan_pending_hashes(verifier)
            peak = max(peak, level)
            assert verifier.pending_hash_count == level
            assert verifier.hash_buffer_peak == peak

        base_seq = 1
        for block_id, (n, order) in enumerate(blocks):
            packets = scheme.make_block(make_payloads(n), _SIGNER,
                                        block_id=block_id, base_seq=base_seq)
            arrivals = [packets[i] for i in order]
            if channel is None:
                for packet in arrivals:
                    stream.receive(packet, 0.0)
                    check()
            else:
                stream.ingest_run(channel.transmit_wire(arrivals),
                                  lambda _delivery: check())
            base_seq += n
            stream.finish_block(block_id, base_seq - 1)
            check()
