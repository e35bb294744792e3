"""Instrumentation neutrality: metrics must never change a result.

PR 1's determinism contract — ``parallel_graph_monte_carlo`` is
bit-for-bit identical at any worker count — must survive the
observability layer in every combination: metrics off (the null fast
path), metrics on (per-shard registries folded in task order), at 1, 2
and 4 workers.  The per-shard counter totals must also be exactly the
serial totals: nothing double-counted at fan-out, nothing dropped at
fold-in.
"""

import pytest

from repro.obs.registry import MetricsRegistry, use_registry
from repro.parallel import parallel_graph_monte_carlo, parallel_trials
from repro.schemes.emss import EmssScheme
from repro.simulation import SeededChannels

WORKER_COUNTS = (1, 2, 4)


def _graph():
    return EmssScheme(2, 1).build_graph(24)


def test_graph_mc_identical_with_metrics_on_or_off():
    graph = _graph()
    baseline = parallel_graph_monte_carlo(graph, 0.2, trials=4000, seed=42,
                                          workers=1)
    for workers in WORKER_COUNTS:
        plain = parallel_graph_monte_carlo(graph, 0.2, trials=4000, seed=42,
                                           workers=workers)
        with use_registry(MetricsRegistry()):
            instrumented = parallel_graph_monte_carlo(
                graph, 0.2, trials=4000, seed=42, workers=workers)
        assert plain == baseline, f"workers={workers}, metrics off"
        assert instrumented == baseline, f"workers={workers}, metrics on"


def test_graph_mc_counters_identical_across_worker_counts():
    """Shard counters must fold to the serial totals exactly."""
    graph = _graph()
    totals = {}
    for workers in WORKER_COUNTS:
        registry = MetricsRegistry()
        with use_registry(registry):
            parallel_graph_monte_carlo(graph, 0.2, trials=4000, seed=42,
                                       workers=workers)
        totals[workers] = dict(registry.counters)
    assert totals[1]["mc.graph.trials"] == 4000
    assert totals[2] == totals[1]
    assert totals[4] == totals[1]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_wire_mc_identical_with_metrics_on_or_off(workers):
    scheme = EmssScheme(2, 1)
    channels = SeededChannels(0.2, 9)
    baseline = parallel_trials(scheme, 8, 12, channels, workers=1)
    plain = parallel_trials(scheme, 8, 12, channels, workers=workers)
    with use_registry(MetricsRegistry()) as registry:
        instrumented = parallel_trials(scheme, 8, 12, channels,
                                       workers=workers)
    assert plain == baseline
    assert instrumented == baseline
    assert registry.counter("wire.trials") == 12
    assert registry.counter("wire.packets_sent") == baseline[0].sent


def test_shard_timers_fold_in_call_counts():
    """Span timers collected inside workers surface in the parent."""
    registry = MetricsRegistry()
    with use_registry(registry):
        parallel_graph_monte_carlo(_graph(), 0.2, trials=2000, seed=1,
                                   workers=2)
    # one mc span per chunk, all folded back through shard snapshots
    assert (registry.timer_calls("mc.graph_monte_carlo")
            == registry.counter("mc.graph.runs"))
    assert registry.counter("pool.tasks") == registry.counter("mc.graph.runs")
