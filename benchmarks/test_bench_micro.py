"""Micro-benchmarks of the library's hot paths.

Not a paper figure — these watch the building blocks every experiment
leans on: recurrence solving, vectorized Monte Carlo, graph
construction, block packetization and receiver throughput.

The two networkx graph benchmarks run under ``benchmark.pedantic``
with warm-up rounds, a fixed round count and the garbage collector
off: with calibrated rounds, collector pauses in their allocation-heavy
graph builds left their stddev close to their mean.
"""

import random

import pytest

from repro.analysis.montecarlo import graph_monte_carlo
from repro.core.recurrence import solve_recurrence
from repro.crypto.signatures import HmacStubSigner, RsaSigner
from repro.schemes.augmented_chain import AugmentedChainScheme
from repro.schemes.emss import EmssScheme
from repro.simulation.receiver import ChainReceiver
from repro.simulation.sender import make_payloads
from repro.simulation.stream_receiver import StreamReceiver


def test_recurrence_n1000(benchmark):
    result = benchmark(solve_recurrence, 1000, [1, 2], 0.1)
    assert 0.98 < result.q_min < 1.0


def test_graph_monte_carlo_n500(benchmark):
    graph = EmssScheme(2, 1).build_graph(500)

    result = benchmark(graph_monte_carlo, graph, 0.1, 2000, 7)
    assert 0.0 < result.q_min <= 1.0


@pytest.mark.benchmark(disable_gc=True)
def test_ac_graph_construction_n1000(benchmark):
    scheme = AugmentedChainScheme(3, 3)
    graph = benchmark.pedantic(scheme.build_graph, args=(1000,),
                               warmup_rounds=5, rounds=60)
    assert graph.edge_count > 1500


def test_block_packetization_n128(benchmark):
    scheme = EmssScheme(2, 1)
    signer = HmacStubSigner(key=b"bench")
    payloads = make_payloads(128)
    packets = benchmark(scheme.make_block, payloads, signer)
    assert len(packets) == 128


def test_receiver_throughput_n128(benchmark):
    scheme = EmssScheme(2, 1)
    signer = HmacStubSigner(key=b"bench")
    packets = scheme.make_block(make_payloads(128), signer)

    def consume():
        receiver = ChainReceiver(signer)
        for packet in packets:
            receiver.receive(packet, 0.0)
        return receiver.verified_count()

    assert benchmark(consume) == 128


def test_receiver_stream_40x128(benchmark):
    """One receiver across a 40-block session: catches per-session growth.

    ``test_receiver_throughput_n128`` starts a fresh receiver every
    round, so verify cost that grows with the stream's length is
    invisible there.  Here 40 EMSS(2,1) blocks of 128 packets go
    through one ``StreamReceiver`` at 10% loss (signature packets
    always arrive), closing each block before the next.
    """
    scheme = EmssScheme(2, 1)
    signer = HmacStubSigner(key=b"bench")
    rng = random.Random(2003)
    blocks = []
    for block_id in range(40):
        packets = scheme.make_block(make_payloads(128), signer,
                                    block_id=block_id,
                                    base_seq=block_id * 128 + 1)
        blocks.append([packet for packet in packets
                       if packet.is_signature_packet or rng.random() >= 0.1])

    def consume():
        receiver = StreamReceiver(signer)
        for block_id, packets in enumerate(blocks):
            for packet in packets:
                receiver.receive(packet, 0.0)
            receiver.finish_block(block_id, (block_id + 1) * 128)
        return receiver.delivered

    verified = benchmark(consume)
    assert 0 < verified <= sum(len(packets) for packets in blocks)


def test_rsa_sign_and_verify(benchmark):
    signer = RsaSigner.generate(1024)
    message = b"benchmark message"

    def roundtrip():
        return signer.verify(message, signer.sign(message))

    assert benchmark(roundtrip)


def test_exact_chain_n1000(benchmark):
    from repro.analysis.exact_chain import exact_q_min

    value = benchmark(exact_q_min, 1000, 3, 0.2)
    assert 0.0 < value < 1.0


def test_exact_periodic_reach12_n400(benchmark):
    from repro.analysis.frontier import frontier_q_profile
    from repro.schemes.emss import GenericOffsetScheme

    plan = GenericOffsetScheme((1, 5, 12)).block_plan(400)
    value = benchmark(lambda: min(frontier_q_profile(plan, 0.2).values()))
    assert 0.0 < value < 1.0


def test_exact_markov_n1000(benchmark):
    from repro.analysis.frontier import frontier_q_profile
    from repro.network.loss import GilbertElliottLoss
    from repro.schemes.emss import EmssScheme

    plan = EmssScheme(2, 1).block_plan(1000)
    model = GilbertElliottLoss.from_rate_and_burst(0.1, 4.0)
    value = benchmark(lambda: min(frontier_q_profile(plan, model).values()))
    assert 0.0 <= value < 1.0


def test_reed_solomon_block128(benchmark):
    from repro.crypto.reed_solomon import rs_decode, rs_encode

    blob = bytes(range(256)) * 10  # ~2.5 KB auth blob

    def roundtrip():
        shares = rs_encode(blob, 128, 64)
        return rs_decode(list(enumerate(shares))[:64], 64)

    assert benchmark(roundtrip) == blob


@pytest.mark.benchmark(disable_gc=True)
def test_diversity_menger_n200(benchmark):
    from repro.core.diversity import disjoint_path_count

    graph = EmssScheme(2, 1).build_graph(200)
    assert benchmark.pedantic(disjoint_path_count, args=(graph, 1),
                              warmup_rounds=5, rounds=60) == 2
