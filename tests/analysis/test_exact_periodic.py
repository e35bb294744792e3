"""Exact offset-set profiles: the frontier engine on periodic graphs.

Offset set ``A`` in signature-rooted indexing (``P_1 = P_sign``):
packet ``i`` relies on ``P_{i-a}``, branches reaching past the root
clamp to it.  The engine evaluates that graph; the original per-state
walk (:func:`exact_periodic_q_profile_reference`) is its oracle.
"""

from typing import List, Sequence

import pytest

from repro.analysis.conformance import analytic_q_profile
from repro.analysis.exact_chain import exact_q_profile
from repro.analysis.frontier import frontier_q_profile
from repro.analysis.montecarlo import graph_monte_carlo
from repro.core.graph import DependenceGraph
from repro.core.recurrence import solve_recurrence
from repro.exceptions import AnalysisError, SchemeParameterError
from repro.schemes.base import BlockPlan
from repro.schemes.emss import GenericOffsetScheme

from tests.oracles import exact_periodic_q_profile_reference


def exact_periodic_q_profile(n: int, offsets: Sequence[int],
                             p: float) -> List[float]:
    """The engine's ``[q_1 .. q_n]`` for offset set ``A``, ``P_1 = P_sign``."""
    graph = DependenceGraph(n, root=1)
    for i in range(2, n + 1):
        for carrier in sorted({max(i - a, 1) for a in offsets}):
            graph.add_edge(carrier, i)
    profile = frontier_q_profile(BlockPlan.compile(graph), p)
    return [profile[i] for i in range(1, n + 1)]


def exact_periodic_q_min(n: int, offsets: Sequence[int], p: float) -> float:
    return min(exact_periodic_q_profile(n, offsets, p))


class TestReductions:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_run_length_chain_for_contiguous(self, m):
        n, p = 50, 0.25
        general = exact_periodic_q_profile(n, list(range(1, m + 1)), p)
        special = exact_q_profile(n, m, p)
        for a, b in zip(general, special):
            assert a == pytest.approx(b, abs=1e-12)

    def test_lossless(self):
        assert exact_periodic_q_profile(30, [2, 5], 0.0) == [1.0] * 30

    def test_certain_loss_boundary_only(self):
        profile = exact_periodic_q_profile(10, [1, 3], 1.0)
        # Positions whose branch clamps to the root stay certain.
        assert profile[0] == 1.0
        assert profile[1] == 1.0  # i=2: offset 1 clamps
        assert profile[3] == 1.0  # i=4: offset 3 clamps
        assert profile[4] == 0.0  # i=5: no clamp, all support lost


class TestAgainstMonteCarlo:
    @pytest.mark.parametrize("offsets", [(1, 3), (2, 5), (1, 4, 9)])
    def test_matches_graph_monte_carlo(self, offsets):
        n, p = 60, 0.2
        profile = exact_periodic_q_profile(n, list(offsets), p)
        graph = GenericOffsetScheme(tuple(offsets)).build_graph(n)
        mc = graph_monte_carlo(graph, p, trials=40000, seed=3)
        for i in (10, 30, 60):
            vertex = n - i + 1
            assert mc.q[vertex] == pytest.approx(profile[i - 1], abs=0.02)


class TestAgainstRecurrence:
    @pytest.mark.parametrize("offsets", [(1, 2), (1, 7), (3, 5)])
    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_recurrence_is_upper_bound(self, offsets, p):
        n = 80
        exact = exact_periodic_q_profile(n, list(offsets), p)
        recurrence = solve_recurrence(n, list(offsets), p).q
        for e, r in zip(exact, recurrence):
            assert e <= r + 1e-9

    def test_spacing_matters_exactly_but_not_in_recurrence(self):
        """Eq. 9 is d-invariant; the exact solver is not."""
        n, p = 100, 0.2
        adjacent = exact_periodic_q_min(n, [1, 2], p)
        spread = exact_periodic_q_min(n, [1, 7], p)
        assert spread > adjacent + 0.1
        rec_adjacent = solve_recurrence(n, [1, 2], p).q_min
        rec_spread = solve_recurrence(n, [1, 7], p).q_min
        assert rec_adjacent == pytest.approx(rec_spread, abs=0.02)


class TestAgainstReference:
    """The frontier engine vs the original dictionary walk.

    The reference implementation is the original per-state Python
    loop, kept verbatim; the shipping evaluator is the frontier engine
    over the compiled graph.  They must agree to full double precision
    across block sizes, offset shapes (contiguous, sparse, rootless
    starts, max reach) and the loss-rate extremes.
    """

    @pytest.mark.parametrize("n", [1, 2, 17, 80])
    @pytest.mark.parametrize("offsets", [
        (1,), (1, 2), (1, 5, 12), (3,), (2, 3, 5), (1, 16)])
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.35, 1.0])
    def test_oracle_matches_reference_grid(self, n, offsets, p):
        oracle = exact_periodic_q_profile(n, list(offsets), p)
        reference = exact_periodic_q_profile_reference(n, list(offsets), p)
        assert len(oracle) == len(reference) == n
        for got, want in zip(oracle, reference):
            assert got == pytest.approx(want, abs=1e-12)

    def test_reference_validates_like_the_oracle(self):
        with pytest.raises(AnalysisError):
            exact_periodic_q_profile_reference(10, [1, 17], 0.1)
        with pytest.raises(AnalysisError):
            exact_periodic_q_profile_reference(0, [1], 0.1)


class TestValidation:
    def test_offset_bounds(self):
        for offsets in ((), (0,)):
            with pytest.raises(AnalysisError):
                exact_periodic_q_profile_reference(10, list(offsets), 0.1)
            with pytest.raises(SchemeParameterError):
                GenericOffsetScheme(offsets)
        # Reach 17 needs a 17-bit frontier, past the engine's cap.
        with pytest.raises(AnalysisError, match="frontier width 17"):
            exact_periodic_q_profile(40, [1, 17], 0.1)

    def test_input_bounds(self):
        with pytest.raises(AnalysisError):
            analytic_q_profile(GenericOffsetScheme((1,)), 0, 0.1)
        with pytest.raises(AnalysisError):
            exact_periodic_q_profile(10, [1], 1.5)
