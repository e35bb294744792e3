"""The benchmark's five workloads, built from a seed through the public API.

A workload repeats one unit of work: a live serve session
(``run_live_session`` on the local transport and the virtual clock) or
an offline repetition (``wire_monte_carlo`` plus
``adversarial_monte_carlo``).  The run's seed fans out into
:data:`INPUTS` input seeds and units cycle through them, so one run
averages over several loss and attack draws instead of resting on one.
Every unit of one input must produce the same output digests.

Each unit returns a *sample*: its wall time, the packets it carried,
one latency per block (serve) or per trial (offline), the reference
slices around them (see ``tracing.Probe``), the digests that pin its
output, and any correctness violations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.conformance import attack_mix
from repro.crypto.rsa import RsaPrivateKey
from repro.crypto.signatures import RsaSigner, Signer
from repro.obs.health import AlertEvent, HealthMonitor
from repro.obs.lifecycle import LifecycleTracer
from repro.obs.timeseries import TimeseriesSampler
from repro.schemes import EmssScheme
from repro.serve import ServeConfig, run_live_session
from repro.simulation import SimulationStats, WireTrialConfig, wire_monte_carlo
from repro.simulation.adversarial import adversarial_monte_carlo

from metrics import INPUTS, WORKLOADS
from tracing import Probe

KEY_PATH = Path(__file__).resolve().parent / "keys" / "rsa3072.json"

#: Serve shapes; the input seed is added per unit.  See README.md for
#: why each workload exists and which layer it stresses.
SERVE_SHAPES: Dict[str, dict] = {
    "fanout64": dict(receivers=64, blocks=48, block_size=12,
                     loss_schedule=((0, 0.05), (24, 0.30)),
                     attack="pollution"),
    "bigblock128": dict(receivers=1, blocks=40, block_size=128,
                        loss_schedule=((0, 0.10),)),
    "rsa16": dict(receivers=16, blocks=48, block_size=12,
                  loss_schedule=((0, 0.05),), adaptive=False),
    "tree32-batch-obs": dict(receivers=32, blocks=48, block_size=12,
                             topology="dualspine:4", trees=2,
                             batch_size=8, flush_deadline=0.5,
                             attack="pollution",
                             loss_schedule=((0, 0.05), (24, 0.25))),
}
RSA_WORKLOADS = ("rsa16", "tree32-batch-obs")
OBS_WORKLOADS = ("tree32-batch-obs",)

#: Timed units per round.  Over three rounds every serve workload then
#: settles at least 240 blocks, so its p95 latency has at least ten
#: samples beyond it.
MIN_UNITS_PER_ROUND = {"fanout64": 2, "bigblock128": 2, "rsa16": 2,
                       "tree32-batch-obs": 2, "offline-mc": 1}

#: The untimed warm-up session is this many blocks of the same shape.
WARMUP_BLOCKS = 8

#: One offline repetition.  The adversarial half has half the trials so
#: that both latency percentiles fall inside the slower wire-trial mode
#: instead of on the gap between two trial sizes.
WIRE_TRIALS = 200
ADVERSARIAL_TRIALS = 100
WARMUP_TRIALS = 10


def input_seed(seed: int, index: int) -> int:
    """Seed of input ``index`` of a run seeded with ``seed``."""
    return seed * INPUTS + index


def load_signer(path: Path = KEY_PATH) -> RsaSigner:
    """The committed RSA-3072 key, checked before use.

    A fixed key keeps set-up time and signing cost repeatable; a fresh
    key would cost seconds of prime search with a variable length.
    """
    raw = json.loads(path.read_text())
    key = RsaPrivateKey(n=int(raw["n"]), e=int(raw["e"]), d=int(raw["d"]),
                        p=int(raw["p"]), q=int(raw["q"]))
    if key.p * key.q != key.n:
        raise ValueError(f"{path}: p*q != n")
    signer = RsaSigner(key)
    message = b"benchmark key check"
    if not signer.verify(message, signer.sign(message)):
        raise ValueError(f"{path}: sign/verify round trip failed")
    return signer


def _canonical(record: object) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _timing(probe: Probe, elapsed_ns: int) -> dict:
    """A unit's wall time and block latencies, reference slices left out.

    ``elapsed_ns`` is the unit's wall time with its slices in.
    """
    wall_ns = elapsed_ns - probe.slice_total_ns
    probe.finish()
    return {
        "wall_s": wall_ns / 1e9,
        "latencies_ms": [ns / 1e6 for ns in probe.latencies_ns],
        "latency_slices": probe.latency_slices,
        "slices_us": [ns / 1e3 for ns in probe.slices_ns],
    }


class ServeWorkload:
    """A live session on the local transport, closed loop per block."""

    root = "serve.loop"

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.configs = [ServeConfig(seed=input_seed(seed, index),
                                    **SERVE_SHAPES[name])
                        for index in range(INPUTS)]
        self.signer: Optional[Signer] = (
            load_signer() if name in RSA_WORKLOADS else None)
        self.min_units = MIN_UNITS_PER_ROUND[name]

    def run(self, probe: Probe, index: int = 0, traced: bool = False,
            warmup: bool = False) -> dict:
        """One session of input ``index``; returns its sample."""
        config = self.configs[index]
        if warmup:
            config = dataclasses.replace(config, blocks=WARMUP_BLOCKS)
        lifecycle = timeseries = health = None
        if self.name in OBS_WORKLOADS:
            lifecycle = LifecycleTracer(run_seed=config.seed, sample=4)
            timeseries = TimeseriesSampler(0.05)
            health = HealthMonitor()
        probe.reset(slicing=not traced)
        start = time.perf_counter_ns()
        with probe.root(self.root) if traced else nullcontext():
            result = run_live_session(config, signer=self.signer,
                                      lifecycle=lifecycle,
                                      timeseries=timeseries, health=health)
        sample = _timing(probe, time.perf_counter_ns() - start)
        digests = {"transcripts": _sha256(
            result.transcripts[r] for r in sorted(result.transcripts))}
        if lifecycle is not None:
            alerts = sorted(health.alerts, key=AlertEvent.sort_key)
            digests["observability"] = _sha256(
                [_canonical(event) + b"\n" for event in lifecycle.events()]
                + [_canonical(alert.to_dict()) + b"\n" for alert in alerts])
        sample.update(
            input=index,
            packets=sum(report.expected for reports in result.reports.values()
                        for report in reports),
            digests=digests,
            violations=self._violations(config, result,
                                        len(probe.latencies_ns)),
            queue_drops=sum(result.queue_drops.values()),
        )
        return sample

    @staticmethod
    def _violations(config: ServeConfig, result, settled: int) -> List[str]:
        problems = []
        if result.forged_accepted:
            problems.append(f"forged_accepted={result.forged_accepted}")
        if len(result.transcripts) != config.receivers:
            problems.append(f"{len(result.transcripts)} transcripts for "
                            f"{config.receivers} receivers")
        for receiver_id, transcript in sorted(result.transcripts.items()):
            lines = len(transcript.splitlines())
            if lines != config.blocks:
                problems.append(f"{receiver_id}: {lines} transcript lines "
                                f"for {config.blocks} blocks")
        if settled != config.blocks:
            problems.append(f"{settled} blocks settled of {config.blocks}")
        return problems


class OfflineWorkload:
    """Wire-level Monte Carlo, passive and attacked, in one repetition."""

    root = "simulation.loop"

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seeds = [input_seed(seed, index) for index in range(INPUTS)]
        self.min_units = MIN_UNITS_PER_ROUND[name]

    def run(self, probe: Probe, index: int = 0, traced: bool = False,
            warmup: bool = False) -> dict:
        """One repetition of input ``index``; returns its sample."""
        seed = self.seeds[index]
        wire_trials = WARMUP_TRIALS if warmup else WIRE_TRIALS
        adversarial_trials = WARMUP_TRIALS if warmup else ADVERSARIAL_TRIALS
        config = WireTrialConfig(block_size=128, trials=wire_trials,
                                 loss_rate=0.2, seed=seed)
        plan = attack_mix("pollution")
        probe.reset(slicing=not traced)
        start = time.perf_counter_ns()
        with probe.root(self.root) if traced else nullcontext():
            wire = wire_monte_carlo(EmssScheme(2, 1), config)
            probe.end_trial()
            attacked = adversarial_monte_carlo(EmssScheme(2, 1), 32, 0.1,
                                               plan, adversarial_trials,
                                               seed=seed)
            probe.end_trial()
        sample = _timing(probe, time.perf_counter_ns() - start)
        problems = []
        for label, stats in (("wire", wire), ("adversarial", attacked)):
            if stats.forged_accepted or stats.forged:
                problems.append(f"{label}: forged_accepted="
                                f"{stats.forged_accepted} "
                                f"forged={stats.forged}")
        trials = wire_trials + adversarial_trials
        if len(probe.latencies_ns) != trials:
            problems.append(f"{len(probe.latencies_ns)} trials timed of "
                            f"{trials}")
        sample.update(
            input=index,
            packets=wire.sent + attacked.sent,
            digests={"stats": _sha256(
                [_canonical([_stats_record(wire),
                             _stats_record(attacked)])])},
            violations=problems,
            queue_drops=0,
        )
        return sample


def _stats_record(stats: SimulationStats) -> dict:
    """Every tally of a :class:`SimulationStats`, canonically ordered."""
    return {
        "tallies": [[position, tally.received, tally.verified]
                    for position, tally in sorted(stats.tallies.items())],
        "delays": stats.delays,
        "peaks": [stats.message_buffer_peak, stats.hash_buffer_peak],
        "counts": [stats.sent, stats.dropped, stats.forged, stats.corrupted,
                   stats.injected, stats.replayed, stats.undecodable,
                   stats.forged_rejected, stats.replays_dropped,
                   stats.forged_accepted],
    }


def make_workload(name: str, seed: int):
    """The workload called ``name``, with its inputs built from ``seed``."""
    if name in SERVE_SHAPES:
        return ServeWorkload(name, seed)
    if name == "offline-mc":
        return OfflineWorkload(name, seed)
    raise ValueError(f"unknown workload {name!r} "
                     f"(known: {', '.join(WORKLOADS)})")
