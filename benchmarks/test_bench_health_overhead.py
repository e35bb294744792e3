"""Health-plane overhead: monitored serve vs the null fast path, A/B.

The guard rail for the online health monitors: the same live session
runs with no health plane and with the full plane (SLO CUSUM per
receiver, drift detection, sentinels), on a clean stream and on a
lossy ramp where the detectors actually fire.  Separately timed arms
could not resolve the overhead — their minima sat inside each other's
run-to-run noise — so each test alternates the two arms in one
process: ``PAIRS`` interleaved null/monitored pairs of the identical
config, the order flipping every pair so slow drift hits both arms
alike, and the assertion is on the median of the per-pair ratios.
Block-boundary health checks are a handful of integer ops and must
never dominate the serving stack; the timed pairs land in the bench
report so the regression gate watches the overhead itself.
"""

import statistics
import time

import pytest

from repro.experiments.common import ExperimentResult
from repro.obs.health import HealthMonitor
from repro.serve.service import ServeConfig, run_live_session

RECEIVERS = 4
BLOCKS = 6
BLOCK_SIZE = 8
PAIRS = 24

#: The median monitored/null time ratio must stay below this.  Loose
#: enough for noisy CI machines; the point is to catch per-packet work
#: on the block path or alert storms, not a few percent of integer
#: arithmetic.
MAX_SLOWDOWN = 1.5


def _config(ramp=None):
    schedule = ((0, 0.1),) if ramp is None else ((0, 0.1), ramp)
    return ServeConfig(receivers=RECEIVERS, blocks=BLOCKS,
                       block_size=BLOCK_SIZE,
                       loss_schedule=schedule, seed=23)


@pytest.mark.parametrize("mode", ("clean", "firing"))
def test_health_overhead_ab(benchmark, show, mode):
    config = _config(None if mode == "clean" else (2, 0.6))
    q_target = "3/4" if mode == "clean" else "9/10"
    seconds = {False: [], True: []}
    monitors = []

    def arm(monitored):
        health = (HealthMonitor(q_target=q_target, deficit=8)
                  if monitored else None)
        start = time.perf_counter()
        session = run_live_session(config, health=health)
        seconds[monitored].append(time.perf_counter() - start)
        assert session.forged_accepted == 0
        if monitored:
            monitors.append(health)

    def pair():
        order = (True, False) if len(seconds[False]) % 2 else (False, True)
        for monitored in order:
            arm(monitored)

    pair()  # warm-up, not timed
    seconds[False].clear()
    seconds[True].clear()
    benchmark.pedantic(pair, rounds=PAIRS, iterations=1)

    ratios = [monitored / null
              for null, monitored in zip(seconds[False], seconds[True])]
    slowdown = statistics.median(ratios)
    assert slowdown < MAX_SLOWDOWN, (
        f"health plane ({mode}) slowed serving by x{slowdown:.2f} "
        f"(median of {len(ratios)} pairs, budget x{MAX_SLOWDOWN})")
    health = monitors[-1]
    assert health.slo  # the monitors actually ran
    if mode == "firing":
        assert health.alerts  # the lossy ramp must trip detectors
    else:
        assert health.counts()["critical"] == 0

    result = ExperimentResult(
        experiment_id="bench-health-overhead",
        title=f"serve null vs monitored, interleaved: {mode} stream")
    result.rows.append({
        "mode": mode,
        "pairs": len(ratios),
        "null s (median)": statistics.median(seconds[False]),
        "monitored s (median)": statistics.median(seconds[True]),
        "median ratio": slowdown,
        "alerts": len(health.alerts),
        "slo scopes": len(health.slo),
    })
    show(result)
