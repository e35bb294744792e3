"""From per-session samples to the metrics the benchmark reports.

Pure functions only: no subprocesses and no part of the program, so
the arithmetic is testable on synthetic samples.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from tracing import LAYERS, RESIDUALS

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
PINS_PATH = BENCH_DIR / "pins.json"

WORKLOADS = ("fanout64", "bigblock128", "rsa16", "tree32-batch-obs",
             "offline-mc")

#: Input seeds one run's seed fans out into; units cycle through them.
INPUTS = 12

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

#: Nominal time of one reference slice (``tracing.reference_slice_ns``):
#: end-to-end times are reported as if the machine ran it this fast.
REFERENCE_SLICE_US = 250.0


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile, refused without enough tail samples.

    The value at rank ``ceil(q*n)`` has ``n - rank`` samples beyond it;
    fewer than :data:`MIN_BEYOND` makes the percentile a guess.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise BenchError(f"p{q * 100:g} of {len(ordered)} samples has "
                         f"{beyond} beyond it, need {MIN_BEYOND}")
    return ordered[rank - 1]


def load_spec() -> dict:
    """``BENCHMARK.json``."""
    return json.loads(SPEC_PATH.read_text())


def load_pins() -> dict:
    """Output digests pinned at one seed.

    ``{"seed": n, "digests": {workload: [digests of input 0, 1, ...]}}``.
    """
    return json.loads(PINS_PATH.read_text())


def failures(samples: Sequence[dict], pinned: Optional[Sequence[dict]]
             ) -> List[str]:
    """One line per failed sample.

    A sample fails if its unit raised, if it reported a violation
    (``forged_accepted > 0``, a missing transcript line, ...), or if its
    digests differ from its input's reference: the pinned digests when
    given, else the first sample of the same input, so that every
    repetition of an input must agree.
    """
    reference = dict(enumerate(pinned or ()))
    lines = []
    for index, sample in enumerate(samples):
        problems = list(sample.get("violations", ()))
        if "error" in sample:
            problems.append(sample["error"])
        else:
            expected = reference.setdefault(sample["input"],
                                            sample["digests"])
            if sample["digests"] != expected:
                problems.append(f"input {sample['input']}: digests "
                                f"{sample['digests']} != {expected}")
        if problems:
            lines.append(f"sample {index}: " + "; ".join(problems))
    return lines


def end_to_end(samples: Sequence[dict], setup_s: Sequence[float],
               setup_slice_us: Sequence[float], peak_rss_kb: Sequence[int]
               ) -> Dict[str, float]:
    """Untraced metrics over every sample that ran, at reference speed.

    Every time is scaled by ``REFERENCE_SLICE_US / r``, where ``r`` is
    the mean reference slice measured during it: the slices from a
    block's open to just after its close for its latency, all of a
    unit's slices for its wall time, 64 slices right after set-up for
    the set-up time.  On a machine that runs the slice in
    :data:`REFERENCE_SLICE_US` these are the plain wall-clock values;
    when a shared machine slows down, the program and the slice slow
    down together and the ratio holds.  Throughput is every unit's
    packets over every unit's scaled wall time.
    """
    ran = [s for s in samples if "wall_s" in s]
    if not ran:
        raise BenchError("no unit ran to completion")
    latencies = []
    packets = 0
    seconds = 0.0
    for sample in ran:
        slices = sample["slices_us"]
        for ms, (first, last) in zip(sample["latencies_ms"],
                                     sample["latency_slices"]):
            speed = statistics.fmean(slices[first:last + 1])
            latencies.append(ms * REFERENCE_SLICE_US / speed)
        packets += sample["packets"]
        seconds += (sample["wall_s"] * REFERENCE_SLICE_US
                    / statistics.fmean(slices))
    return {
        "pkts_per_s": packets / seconds,
        "block_latency_p50_ms": statistics.median(latencies),
        "block_latency_p95_ms": percentile(latencies, 0.95),
        "setup_s": statistics.median(
            setup * REFERENCE_SLICE_US / speed
            for setup, speed in zip(setup_s, setup_slice_us)),
        "peak_rss_mb": max(peak_rss_kb) / 1024.0,
    }


def _median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(traced: Sequence[dict], untraced: Sequence[dict]
              ) -> Dict[str, float]:
    """Traced metrics: medians over traced sessions of per-session values.

    A layer a workload never enters reports 0.  ``trace_overhead`` is
    the traced median wall over the untraced median wall, minus one.
    """
    ran = [s for s in traced if "self_ns" in s]
    plain = [s for s in untraced if "wall_s" in s]
    if not ran or not plain:
        raise BenchError("no traced and untraced pair ran to completion")
    values: Dict[str, float] = {}
    for layer in LAYERS + RESIDUALS:
        self_s = [s["self_ns"].get(layer, 0) / 1e9 for s in ran]
        values[f"{layer}.self_s"] = statistics.median(self_s)
        if layer in LAYERS:
            values[f"{layer}.calls"] = statistics.median(
                s["calls"].get(layer, 0) for s in ran)
        values[f"{layer}.share"] = statistics.median(
            value / s["wall_s"] for value, s in zip(self_s, ran))
    for index, suffix in enumerate(("p50", "p95")):
        values[f"serve.transport.wait_ms_{suffix}"] = _median_or_zero(
            [s["transport_wait_ms"][index] for s in ran
             if s["transport_wait_ms"]])
    barrier = [ms for s in ran for ms in s["barrier_ms"]]
    values["serve.barrier.wait_ms_p50"] = _median_or_zero(barrier)
    values["serve.barrier.wait_ms_p95"] = (percentile(barrier, 0.95)
                                            if barrier else 0.0)
    values["serve.transport.queue_drops"] = statistics.median(
        s["queue_drops"] for s in ran)
    values["simulation.ingest.verified_ratio"] = statistics.median(
        s["verified"] / s["calls"]["simulation.ingest"]
        if s["calls"].get("simulation.ingest") else 0.0 for s in ran)
    values["simulation.ingest.rejects"] = statistics.median(
        s["rejects"] for s in ran)
    values["crypto.batch.cache_hit_ratio"] = statistics.median(
        s["root_hits"] / (s["root_hits"] + s["root_verifies"])
        if s["root_hits"] + s["root_verifies"] else 0.0 for s in ran)
    values["trace_overhead"] = (
        statistics.median(s["wall_s"] for s in ran)
        / statistics.median(s["wall_s"] for s in plain) - 1.0)
    return values


def result_object(values: Dict[str, float], spec_metrics: Sequence[dict],
                  attempted: int, failed: int) -> dict:
    """A result object: exactly ``correct/attempted/failed/metrics``."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]}
                    for m in spec_metrics},
    }


def compare(a: Dict[str, dict], b: Dict[str, dict], spec: dict
            ) -> Tuple[List[str], bool]:
    """Check result set ``b`` against ``a`` under the end-to-end bounds.

    Both map workload name to a result object.  Returns one row per
    workload and whether every end-to-end metric of ``b`` is within its
    bound of ``a``.  A metric present in neither result is skipped (a
    traced result carries only per-layer metrics); one present in only
    one side fails.
    """
    rows = []
    ok = True
    for workload in sorted(set(a) | set(b)):
        if workload not in a or workload not in b:
            rows.append(f"{workload}: only in one result")
            ok = False
            continue
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            left = a[workload]["metrics"].get(name)
            right = b[workload]["metrics"].get(name)
            if left is None and right is None:
                continue
            if left is None or right is None:
                cells.append(f"{name} missing")
                ok = False
                continue
            base, new = left["value"], right["value"]
            change = (new - base) / base
            worse = change if metric["better"] == "lower" else -change
            verdict = "ok" if worse <= metric["bound"] else "WORSE"
            ok = ok and verdict == "ok"
            cells.append(f"{name} {base:.4g}->{new:.4g} "
                         f"({change:+.1%}, bound {metric['bound']:.0%}) "
                         f"{verdict}")
        rows.append(f"{workload}: " + " | ".join(cells))
    return rows, ok
