"""Property-based tests tying the exact evaluators together.

Independent evaluators cover overlapping domains; hypothesis drives
random instances through every pairwise agreement and ordering that
must hold between them and the paper's recurrence.
"""

from typing import List, Sequence, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.exact_chain import exact_q_profile
from repro.analysis.frontier import frontier_q_profile
from repro.core.graph import DependenceGraph
from repro.core.recurrence import solve_recurrence
from repro.network.loss import LossModel, MarkovLoss
from repro.schemes.base import BlockPlan

_loss = st.floats(min_value=0.0, max_value=0.95)
_small_offsets = st.lists(st.integers(min_value=1, max_value=10),
                          min_size=1, max_size=3, unique=True)


def exact_periodic_q_profile(n: int, offsets: Sequence[int],
                             p: Union[float, LossModel]) -> List[float]:
    """The frontier engine's ``[q_1 .. q_n]`` for offset set ``A``.

    Signature-rooted: ``P_1 = P_sign``, packet ``i`` relies on
    ``P_{max(i - a, 1)}``.
    """
    graph = DependenceGraph(n, root=1)
    for i in range(2, n + 1):
        for carrier in sorted({max(i - a, 1) for a in offsets}):
            graph.add_edge(carrier, i)
    profile = frontier_q_profile(BlockPlan.compile(graph), p)
    return [profile[i] for i in range(1, n + 1)]


class TestEvaluatorAgreement:
    @given(st.integers(min_value=1, max_value=60),
           st.integers(min_value=1, max_value=5), _loss)
    @settings(max_examples=80, deadline=None)
    def test_run_length_equals_transfer_matrix(self, n, m, p):
        chain = exact_q_profile(n, m, p)
        periodic = exact_periodic_q_profile(n, list(range(1, m + 1)), p)
        for a, b in zip(chain, periodic):
            assert a == pytest.approx(b, abs=1e-10)

    @given(st.integers(min_value=1, max_value=60),
           st.integers(min_value=1, max_value=5), _loss)
    @settings(max_examples=80, deadline=None)
    def test_single_state_markov_equals_iid(self, n, m, p):
        iid = exact_q_profile(n, m, p)
        markov = exact_periodic_q_profile(n, list(range(1, m + 1)),
                                          MarkovLoss([[1.0]], [p]))
        for a, b in zip(iid, markov):
            assert a == pytest.approx(b, abs=1e-10)


class TestOrderings:
    @given(st.integers(min_value=2, max_value=80), _small_offsets, _loss)
    @settings(max_examples=80, deadline=None)
    def test_recurrence_upper_bounds_exact(self, n, offsets, p):
        exact = exact_periodic_q_profile(n, offsets, p)
        approx = solve_recurrence(n, offsets, p).q
        for e, r in zip(exact, approx):
            assert e <= r + 1e-9

    @given(st.integers(min_value=2, max_value=60),
           st.integers(min_value=1, max_value=5),
           st.floats(min_value=0.0, max_value=0.9))
    @settings(max_examples=60, deadline=None)
    def test_exact_monotone_in_loss(self, n, m, p):
        lower = exact_q_profile(n, m, min(p + 0.05, 1.0))
        higher = exact_q_profile(n, m, p)
        for h, l in zip(higher, lower):
            assert h >= l - 1e-9

    @given(st.integers(min_value=2, max_value=60),
           st.integers(min_value=1, max_value=4), _loss)
    @settings(max_examples=60, deadline=None)
    def test_extra_reach_never_hurts(self, n, m, p):
        narrow = exact_q_profile(n, m, p)
        wide = exact_q_profile(n, m + 1, p)
        for a, b in zip(narrow, wide):
            assert b >= a - 1e-9

    @given(st.integers(min_value=2, max_value=60), _small_offsets, _loss)
    @settings(max_examples=60, deadline=None)
    def test_values_are_probabilities(self, n, offsets, p):
        for q in exact_periodic_q_profile(n, offsets, p):
            assert -1e-12 <= q <= 1.0 + 1e-12
