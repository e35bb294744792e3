"""Property-based tests for loss models and the verification cascade."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.montecarlo import graph_monte_carlo
from repro.crypto.signatures import HmacStubSigner
from repro.network.loss import BernoulliLoss, GilbertElliottLoss, TraceLoss
from repro.schemes.emss import EmssScheme
from repro.schemes.rohatgi import RohatgiScheme
from repro.simulation.receiver import ChainReceiver
from repro.simulation.sender import make_payloads


class TestLossModelProperties:
    @given(st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_bernoulli_reset_is_replay(self, p, seed):
        model = BernoulliLoss(p, seed=seed)
        first = model.sample(64)
        model.reset()
        assert model.sample(64) == first

    @given(st.floats(min_value=0.01, max_value=0.9),
           st.floats(min_value=1.0, max_value=20.0),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_gilbert_elliott_stationary_rate(self, rate, burst, seed):
        from hypothesis import assume

        # Feasibility: g2b = rate / (burst (1-rate)) must be <= 1.
        assume(rate <= burst / (1.0 + burst))
        model = GilbertElliottLoss.from_rate_and_burst(rate, burst, seed=seed)
        assert abs(model.mean_loss_rate - rate) < 1e-9

    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_trace_mean_rate(self, trace):
        model = TraceLoss(trace)
        observed = model.sample(len(trace))
        assert observed == list(trace)
        assert model.mean_loss_rate == sum(trace) / len(trace)


@st.composite
def loss_patterns(draw):
    """A block size and per-packet keep/drop decisions."""
    n = draw(st.integers(min_value=2, max_value=24))
    kept = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return n, kept


class TestCascadeSoundnessAndCompleteness:
    """The wire-level receiver must verify exactly the packets that the
    graph-reachability semantics says are verifiable."""

    def _expected_verifiable(self, graph, received):
        verifiable = {graph.root} if received[graph.root] else set()
        order = graph.topological_order()
        for vertex in order:
            if vertex == graph.root or not received.get(vertex):
                continue
            if any(u in verifiable for u in graph.predecessors(vertex)):
                verifiable.add(vertex)
        return verifiable

    @given(loss_patterns(), st.sampled_from(["rohatgi", "emss"]))
    @settings(max_examples=80, deadline=None)
    def test_receiver_matches_graph_semantics(self, pattern, kind):
        n, kept = pattern
        scheme = RohatgiScheme() if kind == "rohatgi" else EmssScheme(2, 1)
        signer = HmacStubSigner(key=b"prop")
        packets = scheme.make_block(make_payloads(n), signer)
        graph = scheme.build_graph(n)
        # P_sign always received, as the paper assumes.
        received = {v: kept[v - 1] for v in graph.vertices}
        received[graph.root] = True
        receiver = ChainReceiver(signer)
        for packet in packets:
            if received[packet.seq]:
                receiver.receive(packet, 0.0)
        expected = self._expected_verifiable(graph, received)
        actual = {seq for seq, o in receiver.outcomes.items() if o.verified}
        assert actual == expected
        assert receiver.forged == 0


class TestMonteCarloProperties:
    @given(st.integers(min_value=3, max_value=40),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_estimates_are_probabilities(self, n, p):
        graph = EmssScheme(2, 1).build_graph(n)
        mc = graph_monte_carlo(graph, p, trials=200, seed=1)
        assert all(0.0 <= q <= 1.0 for q in mc.q.values())
        assert mc.q[graph.root] == 1.0
