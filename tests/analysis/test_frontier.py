"""The frontier engine against its two independent oracles.

* exhaustive enumeration of every loss pattern (the oracle defined
  here, exact by construction, exponential in ``n``) for every
  registered graph scheme at ``n <= 16``;
* the original per-state offset-set walk
  (:func:`exact_periodic_q_profile_reference`) on periodic schemes up
  to ``n = 400``.
"""

from typing import Dict

import numpy as np
import pytest

from repro.analysis.conformance import DEFAULT_SPECS
from repro.analysis.exact_periodic import exact_periodic_q_profile_reference
from repro.analysis.frontier import frontier_q_profile, frontier_width
from repro.analysis.montecarlo import _propagate
from repro.core.graph import DependenceGraph
from repro.exceptions import AnalysisError
from repro.schemes.registry import make_scheme

LOSS_RATES = (0.0, 0.1, 0.25, 0.5, 1.0)
GRAPH_SPECS = sorted(spec for spec in DEFAULT_SPECS.values()
                     if make_scheme(spec).build_graph(4) is not None)


def exhaustive_q_profile(graph: DependenceGraph, p: float,
                         root_always_received: bool = True
                         ) -> Dict[int, float]:
    """Exact per-vertex ``q_i`` by enumerating every loss pattern.

    Sums ``P{verifiable & received}`` over all ``2^(n-1)`` receive
    subsets of the non-root vertices (the root is handled per the
    ``P_sign`` assumption), then conditions on receipt.  Exponential by
    construction — the guard caps ``n`` — but *exact*: unlike Eq. 9/10
    it makes no path-independence approximation, so it is the right
    oracle for the engine on any graph.
    """
    if not 0.0 <= p <= 1.0:
        raise AnalysisError(f"loss rate must be in [0, 1], got {p}")
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
    loss_count = len(others) - received[:, others].sum(axis=1)
    weights = (1.0 - p) ** (len(others) - loss_count) * p ** loss_count
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
        ("rohatgi", 1), ("emss(2,1)", 2), ("emss(3,2)", 6),
        ("ac(2,4)", 10), ("ac(3,3)", 11), ("offsets(1,5,12)", 12)])
    @pytest.mark.parametrize("n", [64, 128])
    def test_width_is_a_property_of_the_shape(self, spec, width, n):
        assert frontier_width(make_scheme(spec).block_plan(n)) == width

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
