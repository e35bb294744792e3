"""The frontier engine against its two independent oracles.

* exhaustive enumeration of every loss pattern (the oracle defined
  here, exact by construction, exponential in ``n``) for every
  registered graph scheme at ``n <= 16`` under iid loss, and under
  Markov loss channels — Gilbert–Elliott and a non-reversible
  three-state cycle — at ``n <= 12``;
* the original per-state offset-set walk
  (:func:`exact_periodic_q_profile_reference`) on periodic schemes up
  to ``n = 400``.
"""

from typing import Dict, Union

import networkx as nx
import numpy as np
import pytest

from repro.analysis.conformance import DEFAULT_SPECS
from repro.analysis.exact_chain import exact_q_profile
from repro.analysis.frontier import frontier_q_profile, frontier_width
from repro.analysis.montecarlo import _propagate
from repro.core.graph import DependenceGraph
from repro.exceptions import AnalysisError
from repro.network.loss import (
    GilbertElliottLoss,
    LossModel,
    MarkovLoss,
    TraceLoss,
)
from repro.schemes.registry import make_scheme

from tests.oracles import exact_periodic_q_profile_reference

LOSS_RATES = (0.0, 0.1, 0.25, 0.5, 1.0)
GRAPH_SPECS = sorted(spec for spec in DEFAULT_SPECS.values()
                     if make_scheme(spec).build_graph(4) is not None)


def exhaustive_q_profile(graph: DependenceGraph,
                         loss: Union[float, LossModel],
                         root_always_received: bool = True
                         ) -> Dict[int, float]:
    """Exact per-vertex ``q_i`` by enumerating every loss pattern.

    Sums ``P{verifiable & received}`` over all ``2^(n-1)`` receive
    subsets of the non-root vertices (the root is handled per the
    ``P_sign`` assumption), then conditions on receipt.  A pattern's
    probability is a forward pass over the channel in send order
    (vertex ``1`` first) from its stationary distribution: iid loss
    ``p`` is the one-state channel, and a Markov channel draws each
    slot's loss in its current state before moving.  ``P_sign``'s slot
    moves the channel but is received whatever the state.  Exponential
    by construction — the guard caps ``n`` — but *exact*: unlike Eq.
    9/10 it makes no path-independence approximation, and it never
    walks against send order, so it is the right oracle for the engine
    on any graph and channel.
    """
    if isinstance(loss, LossModel):
        transition, rates = (np.asarray(x, dtype=float) for x in loss.chain)
    else:
        if not 0.0 <= loss <= 1.0:
            raise AnalysisError(f"loss rate must be in [0, 1], got {loss}")
        transition, rates = np.ones((1, 1)), np.array([loss])
    if not root_always_received:
        raise AnalysisError(
            "exhaustive profile models the paper's P_sign assumption only")
    graph.validate()
    n = graph.n
    if n > 16:
        raise AnalysisError(
            f"exhaustive enumeration infeasible for n = {n} (cap 16)")
    others = [v for v in graph.vertices if v != graph.root]
    patterns = 1 << len(others)
    received = np.zeros((patterns, n + 1), dtype=bool)
    for bit, vertex in enumerate(others):
        received[:, vertex] = (np.arange(patterns) >> bit) & 1
    received[:, graph.root] = True
    eigenvalues, vectors = np.linalg.eig(transition.T)
    stationary = np.real(vectors[:, np.argmin(abs(eigenvalues - 1.0))])
    forward = np.tile(stationary / stationary.sum(), (patterns, 1))
    for vertex in range(1, n + 1):
        if vertex != graph.root:
            forward = forward * np.where(received[:, [vertex]],
                                         1.0 - rates, rates)
        forward = forward @ transition
    weights = forward.sum(axis=1)
    verifiable = _propagate(graph, received)
    profile: Dict[int, float] = {}
    for vertex in graph.vertices:
        got = float(weights[received[:, vertex]].sum())
        ok = float(weights[verifiable[:, vertex]].sum())
        if got <= 0.0:
            continue
        profile[vertex] = ok / got
    return profile


class TestAgainstExhaustive:
    def test_every_graph_scheme_is_covered(self):
        assert {"rohatgi", "rohatgi-online", "emss(2,1)", "ac(3,3)",
                "offsets(1,3)", "random(0.35,11)"} <= set(GRAPH_SPECS)

    @pytest.mark.parametrize("n", range(2, 17))
    @pytest.mark.parametrize("spec", GRAPH_SPECS)
    def test_matches_enumeration(self, spec, n):
        scheme = make_scheme(spec)
        plan = scheme.block_plan(n)
        graph = scheme.build_graph(n)
        for p in LOSS_RATES:
            engine = frontier_q_profile(plan, p)
            oracle = exhaustive_q_profile(graph, p)
            assert set(engine) == set(graph.vertices)
            # At p = 1 only the root is ever received; the engine's
            # q_i (support probability) is defined regardless.
            for vertex, want in oracle.items():
                assert engine[vertex] == pytest.approx(want, abs=1e-12), (
                    spec, n, p, vertex)

    def test_oracle_refuses_large_blocks(self):
        graph = make_scheme("emss(2,1)").build_graph(17)
        with pytest.raises(AnalysisError, match="cap 16"):
            exhaustive_q_profile(graph, 0.1)


#: A non-reversible channel: GOOD -> LOSSY -> OUTAGE -> GOOD, never back.
CYCLIC = MarkovLoss([[0.8, 0.2, 0.0], [0.0, 0.5, 0.5], [0.6, 0.0, 0.4]],
                    [0.0, 0.6, 1.0])
CHANNELS = {
    "gilbert-elliott": GilbertElliottLoss.from_rate_and_burst(0.2, 3.0),
    "lossy-good": GilbertElliottLoss(0.1, 0.3, loss_in_bad=0.9,
                                     loss_in_good=0.05),
    "cyclic": CYCLIC,
}
#: Registry plans whose walk from P_sign runs monotone in send order.
MONOTONE_SPECS = {"rohatgi", "rohatgi-online", "emss(2,1)", "offsets(1,3)"}


def assert_matches(engine, oracle, *context):
    for vertex, want in oracle.items():
        assert engine[vertex] == pytest.approx(want, abs=1e-12), (
            *context, vertex)


class TestMarkovAgainstExhaustive:
    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("spec", GRAPH_SPECS)
    def test_matches_enumeration(self, spec, n, channel):
        scheme = make_scheme(spec)
        plan = scheme.block_plan(n)
        try:
            engine = frontier_q_profile(plan, CHANNELS[channel])
        except AnalysisError as exc:
            assert spec not in MONOTONE_SPECS, exc
            assert "monotone in send order" in str(exc)
            return
        assert set(engine) == set(range(1, n + 1))
        assert_matches(engine, exhaustive_q_profile(
            scheme.build_graph(n), CHANNELS[channel]), spec, n, channel)

    def test_every_monotone_spec_is_registered(self):
        assert MONOTONE_SPECS <= set(GRAPH_SPECS)

    @pytest.mark.parametrize("n", [9, 12])
    @pytest.mark.parametrize("spec", [
        "emss(2,2)", "emss(3,2)", "emss(2,3)", "emss(1,4)", "offsets(2,4)"])
    def test_split_plans_under_gilbert_elliott(self, spec, n):
        scheme = make_scheme(spec)
        plan = scheme.block_plan(n)
        assert components_without_root(scheme.build_graph(n)) > 1
        for name in ("gilbert-elliott", "lossy-good"):
            engine = frontier_q_profile(plan, CHANNELS[name])
            assert_matches(engine, exhaustive_q_profile(
                scheme.build_graph(n), CHANNELS[name]), spec, n, name)

    def test_non_reversible_channel_walks_against_send_order(self):
        """EMSS sends P_sign last: the walk steps the reversed kernel.

        The forward kernel, walked away from P_sign, gives 0.7388 here.
        """
        scheme = make_scheme("emss(2,1)")
        engine = frontier_q_profile(scheme.block_plan(9), CYCLIC)
        assert engine[5] == pytest.approx(0.7478620689655172, abs=1e-12)
        assert engine[5] == pytest.approx(
            exhaustive_q_profile(scheme.build_graph(9), CYCLIC)[5], abs=1e-12)

    @pytest.mark.parametrize("spec", ["ac(2,2)", "ac(3,3)"])
    def test_augmented_chain_refused_under_markov_loss(self, spec):
        plan = make_scheme(spec).block_plan(32)
        for channel in CHANNELS.values():
            with pytest.raises(AnalysisError, match="monotone in send order"):
                frontier_q_profile(plan, channel)
        frontier_q_profile(plan, 0.2)  # iid needs no monotone walk

    @pytest.mark.parametrize("spec", ["emss(2,1)", "ac(3,3)", "emss(4,4)"])
    def test_one_state_channels_are_iid(self, spec):
        plan = make_scheme(spec).block_plan(64)
        iid = frontier_q_profile(plan, 0.2)
        assert frontier_q_profile(plan, MarkovLoss([[1.0]], [0.2])) == iid

    def test_loss_model_without_a_chain_refused(self):
        plan = make_scheme("emss(2,1)").block_plan(8)
        with pytest.raises(AnalysisError, match="not a Markov channel"):
            frontier_q_profile(plan, TraceLoss([True, False]))


def components_without_root(graph: DependenceGraph) -> int:
    """How many pieces the graph falls into once ``P_sign`` is gone."""
    digraph = graph.to_networkx()
    digraph.remove_node(graph.root)
    return nx.number_weakly_connected_components(digraph)


class TestAgainstReferenceWalk:
    @pytest.mark.parametrize("n", [2, 3, 17, 100, 400])
    @pytest.mark.parametrize("spec", [
        "emss(2,1)", "emss(3,2)", "offsets(1,3)", "offsets(1,7)",
        "offsets(1,5,12)"])
    def test_matches_reference(self, spec, n):
        scheme = make_scheme(spec)
        plan = scheme.block_plan(n)
        # The reference walk takes seconds per call at reach 12 and
        # n = 400, so the loss-rate extremes run on the short blocks.
        for p in (0.0, 0.2, 1.0) if n <= 17 else (0.2,):
            engine = frontier_q_profile(plan, p)
            reference = exact_periodic_q_profile_reference(
                n, list(scheme.offsets), p)
            # send position s is the reference's index n + 1 - s
            for position, got in engine.items():
                assert got == pytest.approx(reference[n - position],
                                            abs=1e-12), (spec, n, p)


class TestFrontier:
    @pytest.mark.parametrize("spec, width", [
        ("rohatgi", 1), ("emss(2,1)", 2), ("emss(3,2)", 3),
        ("ac(2,4)", 10), ("ac(3,3)", 10), ("offsets(1,5,12)", 12),
        ("emss(4,4)", 4), ("emss(1,32)", 1), ("offsets(32)", 1)])
    @pytest.mark.parametrize("n", [64, 128])
    def test_width_is_a_property_of_the_shape(self, spec, width, n):
        """The largest component's width: E_{m,d} walks d chains."""
        assert frontier_width(make_scheme(spec).block_plan(n)) == width

    @pytest.mark.parametrize("spec", ["emss(1,32)", "offsets(32)"])
    def test_split_reach_32_is_exact(self, spec):
        """One hash 32 packets on: P_s verifies iff P_{s+32} arrives,
        or P_{s+32} is P_sign."""
        n, p = 64, 0.2
        profile = frontier_q_profile(make_scheme(spec).block_plan(n), p)
        for s, got in profile.items():
            assert got == (1.0 if s + 32 >= n else pytest.approx(1 - p))

    def test_split_components_match_the_run_length_chain(self):
        """E_{4,4} at n = 128 is four E_{4,1} chains, walked apart."""
        n, p = 128, 0.2
        engine = frontier_q_profile(make_scheme("emss(4,4)").block_plan(n), p)
        chain = exact_q_profile(n // 4 + 1, 4, p)
        # P_s sits ceil((n - s) / 4) hops from P_sign in its chain
        for s, got in engine.items():
            assert got == pytest.approx(chain[-((s - n) // 4)], abs=1e-12)

    def test_wide_random_graph_refused_with_its_width(self):
        plan = make_scheme("random(0.1,3)").block_plan(64)
        width = frontier_width(plan)
        assert width > 16
        with pytest.raises(AnalysisError, match=f"frontier width {width}"):
            frontier_q_profile(plan, 0.1)

    def test_ac_beyond_enumeration(self):
        """The paper's own C_{3,3} at n = 128: Eq. 10 is far too kind."""
        scheme = make_scheme("ac(3,3)")
        exact = min(frontier_q_profile(scheme.block_plan(128), 0.2).values())
        approximate = min(scheme.recurrence_q_profile(128, 0.2).values())
        assert exact == pytest.approx(0.652, abs=5e-4)
        assert approximate == pytest.approx(0.938, abs=5e-4)

    def test_loss_rate_validated(self):
        plan = make_scheme("emss(2,1)").block_plan(8)
        for p in (-0.1, 1.5):
            with pytest.raises(AnalysisError, match="loss rate"):
                frontier_q_profile(plan, p)
