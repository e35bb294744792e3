"""Property-based tests for the Eq. 9 recurrence and scheme analyses."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import augmented_chain as ac_analysis
from repro.analysis import emss as emss_analysis
from repro.analysis.montecarlo import McResult, _tally, graph_monte_carlo
from repro.core.graph import DependenceGraph
from repro.core.recurrence import solve_recurrence
from repro.exceptions import AnalysisError
from repro.schemes.augmented_chain import AugmentedChainScheme
from repro.schemes.emss import EmssScheme

_loss = st.floats(min_value=0.0, max_value=1.0)
_moderate_loss = st.floats(min_value=0.0, max_value=0.9)
_offsets = st.lists(st.integers(min_value=1, max_value=12),
                    min_size=1, max_size=4, unique=True)


def graph_monte_carlo_reference(graph: DependenceGraph, p: float,
                                trials: int = 10_000, seed=None,
                                root_always_received: bool = True) -> McResult:
    """Pre-vectorization reference implementation of
    :func:`graph_monte_carlo`.

    Propagates verifiability with an explicit Python loop over each
    vertex's predecessors instead of the ``np.logical_or.reduce``
    column gather.  Kept (slow, unoptimized) as the differential-test
    oracle: with the same seed it must match :func:`graph_monte_carlo`
    bit-for-bit, because both consume identical RNG draws.
    """
    if not 0.0 <= p <= 1.0:
        raise AnalysisError(f"loss rate must be in [0, 1], got {p}")
    if trials < 1:
        raise AnalysisError(f"need >= 1 trial, got {trials}")
    graph.validate()
    n = graph.n
    rng = np.random.default_rng(seed)
    received = rng.random((trials, n + 1)) >= p  # column 0 unused
    received[:, 0] = False
    if root_always_received:
        received[:, graph.root] = True
    verifiable = np.zeros((trials, n + 1), dtype=bool)
    verifiable[:, graph.root] = received[:, graph.root]
    for vertex in graph.topological_order():
        if vertex == graph.root:
            continue
        predecessors = graph.predecessors(vertex)
        if not predecessors:
            continue
        support = verifiable[:, predecessors[0]].copy()
        for predecessor in predecessors[1:]:
            support |= verifiable[:, predecessor]
        verifiable[:, vertex] = received[:, vertex] & support
    return _tally(graph, received, verifiable, trials)


class TestRecurrenceProperties:
    @given(st.integers(min_value=1, max_value=120), _offsets, _loss)
    @settings(max_examples=120, deadline=None)
    def test_probabilities_in_unit_interval(self, n, offsets, p):
        result = solve_recurrence(n, offsets, p)
        assert all(0.0 <= q <= 1.0 for q in result.q)

    @given(st.integers(min_value=5, max_value=100), _offsets, _moderate_loss)
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_loss_rate(self, n, offsets, p):
        assume(p <= 0.88)
        lower = solve_recurrence(n, offsets, p + 0.02).q_min
        higher = solve_recurrence(n, offsets, p).q_min
        assert higher >= lower - 1e-12

    @given(st.integers(min_value=5, max_value=100), _offsets, _loss,
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_adding_an_offset_never_hurts(self, n, offsets, p, extra):
        assume(extra not in offsets)
        base = solve_recurrence(n, offsets, p).q
        richer = solve_recurrence(n, offsets + [extra], p).q
        assert all(b >= a - 1e-12 for a, b in zip(base, richer))

    @given(st.integers(min_value=5, max_value=80), _offsets, _loss)
    @settings(max_examples=60, deadline=None)
    def test_q_min_monotone_in_block_size(self, n, offsets, p):
        small = solve_recurrence(n, offsets, p).q_min
        large = solve_recurrence(n + 10, offsets, p).q_min
        assert large <= small + 1e-12

    @given(st.integers(min_value=2, max_value=80), _offsets)
    @settings(max_examples=40, deadline=None)
    def test_lossless_channel_gives_certainty(self, n, offsets):
        assert solve_recurrence(n, offsets, 0.0).q_min == 1.0


def _emss_graph(n):
    return EmssScheme(2, 1).build_graph(n)


def _ac_graph(n):
    return AugmentedChainScheme(3, 3).build_graph(n)


def _wong_lam_star(n):
    # Wong–Lam's dependence structure as a graph: every packet is
    # directly authenticated by P_sign (individual verifiability).
    return DependenceGraph.from_edges(n, 1, [(1, j) for j in range(2, n + 1)])


class TestVectorizedMonteCarloMatchesReference:
    """The ``np.logical_or.reduce`` column-gather rewrite of
    ``graph_monte_carlo`` must match the pre-rewrite predecessor-loop
    implementation (kept as a slow reference fixture) bit-for-bit:
    both consume identical RNG draws, so with the same seed every
    count — not just every estimate — is equal.
    """

    @given(st.integers(min_value=5, max_value=40),
           st.floats(min_value=0.0, max_value=0.9),
           st.integers(min_value=0, max_value=2**31),
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_emss_ac_star_graphs(self, n, p, seed, protect_root):
        for build in (_emss_graph, _ac_graph, _wong_lam_star):
            graph = build(n)
            fast = graph_monte_carlo(
                graph, p, trials=150, seed=seed,
                root_always_received=protect_root)
            reference = graph_monte_carlo_reference(
                graph, p, trials=150, seed=seed,
                root_always_received=protect_root)
            assert fast == reference


class TestEmssProperties:
    @given(st.integers(min_value=3, max_value=200),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=6),
           _moderate_loss)
    @settings(max_examples=80, deadline=None)
    def test_q_min_valid_probability(self, n, m, d, p):
        value = emss_analysis.q_min(n, m, d, p)
        assert 0.0 <= value <= 1.0

    @given(st.integers(min_value=10, max_value=200),
           st.floats(min_value=0.0, max_value=0.45))
    @settings(max_examples=60, deadline=None)
    def test_fixed_point_floor_holds(self, n, p):
        bound = emss_analysis.q_min_lower_bound_e21(p)
        assert emss_analysis.q_min(n, 2, 1, p) >= bound - 1e-9


class TestAcProperties:
    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=20, max_value=300),
           _moderate_loss)
    @settings(max_examples=80, deadline=None)
    def test_profile_values_valid(self, a, b, n, p):
        assume(n - 1 >= b + 1)
        profile = ac_analysis.q_profile(n, a, b, p)
        for value in profile.chain:
            assert 0.0 <= value <= 1.0
        for value in profile.inserted.values():
            assert 0.0 <= value <= 1.0

    @given(st.integers(min_value=2, max_value=5),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=30, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_lossless_certainty(self, a, b, n):
        assume(n - 1 >= b + 1)
        assert ac_analysis.q_min(n, a, b, 0.0) == 1.0

    @given(st.integers(min_value=2, max_value=5),
           st.integers(min_value=1, max_value=5),
           st.floats(min_value=0.0, max_value=0.85))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_loss(self, a, b, p):
        n = 20 * (b + 1) + 1
        low = ac_analysis.q_min(n, a, b, p + 0.05)
        high = ac_analysis.q_min(n, a, b, p)
        assert high >= low - 1e-12
