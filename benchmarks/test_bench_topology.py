"""Topology serving benchmarks: tree fan-out cost and the ext run.

Two numbers worth tracking release over release:

* the throughput cost of routing the live serving loop through a
  shared-spine distribution tree (per-edge draws, path ANDing and
  subtree bookkeeping) relative to the default star, one independent
  channel per receiver — measured as one full session at 32
  receivers;
* the end-to-end ``ext-topology`` experiment in fast mode, which
  exercises per-subtree adaptation and k-redundant trees — its
  qualitative claims (per-subtree beats global, k=2 beats k=1, zero
  forged acceptances) are re-asserted here so a perf refactor cannot
  silently trade them away.
"""

import pytest

from repro.experiments import ext_topology
from repro.serve.service import ServeConfig, run_live_session

RECEIVERS = 32
BLOCKS = 4
BLOCK_SIZE = 8


def _config(**overrides):
    base = dict(receivers=RECEIVERS, blocks=BLOCKS, block_size=BLOCK_SIZE,
                loss_schedule=((0, 0.1),), seed=17)
    base.update(overrides)
    return ServeConfig(**base)


@pytest.mark.parametrize("topology", [None, "spine:4", "dualspine:4"])
def test_topology_serve_throughput(benchmark, show, topology):
    # ``None`` runs the session's default topology (a star).
    overrides = {} if topology is None else dict(topology=topology)
    config = _config(trees=2 if topology == "dualspine:4" else 1,
                     **overrides)
    session = benchmark(run_live_session, config)
    assert session.forged_accepted == 0
    assert session.delivered > 0
    if topology == "dualspine:4":
        assert session.duplicates_suppressed > 0

    from repro.experiments.common import ExperimentResult
    seconds = benchmark.stats.stats.mean
    result = ExperimentResult(
        experiment_id="bench-topology",
        title=f"topology serving, {RECEIVERS} receivers, "
              f"{topology or 'default star'}",
    )
    result.rows.append({
        "topology": topology or "(none)",
        "delivered pkts": session.delivered,
        "session s": seconds,
        "pkts/sec": session.delivered / seconds,
    })
    show(result)


def test_ext_topology_experiment(benchmark, show):
    result = benchmark.pedantic(ext_topology.run, kwargs={"fast": True},
                                rounds=2, iterations=1)
    show(result)
    ratios = {row["arm"]: row["delivered-verified ratio"]
              for row in result.rows}
    assert ratios["per-subtree controller"] > ratios["global controller"]
    assert ratios["k=2 tree(s)"] > ratios["k=1 tree(s)"]
    assert any("forged_accepted totals 0" in note for note in result.notes)
