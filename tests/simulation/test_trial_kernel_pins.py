"""Pinned outputs of every offline trial driver.

Each case runs one public offline entry point and hashes the canonical
record ``bench/workloads.py`` builds from a
:class:`~repro.simulation.stats.SimulationStats`: per-position tallies,
the delay sequence, both buffer peaks and all ten counters.  The
digests in ``tests/data/trial_kernel_pins.json`` were recorded from the
per-family drivers the trial kernel replaced, so every case holds the
kernel to their outputs byte for byte.  The same cases then run
through :func:`~repro.parallel.parallel_trials` at one and two workers,
which must fold to the identical record.

Two families cover a subset of the schemes.  Multicast pins the
hash-chained and individually verifiable schemes: the replaced
multicast driver had no verifier for TESLA or the online chain and did
not track SAIDA's buffer peak.  Sessions pin every scheme but the
online chain, which had no session runner.
"""

import hashlib
import json
import os
from functools import partial

import pytest

from repro.analysis.conformance import (
    DEFAULT_SPECS,
    ConformanceEnvironment,
    adversarial_wire_stats,
    attack_mix,
    default_scheme,
    wire_q_stats,
)
from repro.network.channel import Channel
from repro.network.delay import GaussianDelay
from repro.network.loss import BernoulliLoss, GilbertElliottLoss
from repro.parallel import parallel_trials
from repro.simulation import (
    FixedChannels,
    ReceiverSpec,
    SeededChannels,
    WireTrialConfig,
    run_multicast_session,
    run_session,
    wire_monte_carlo,
)
from repro.simulation.adversarial import AttackSchedule, adversarial_monte_carlo
from repro.topology import (
    TopologyChannels,
    shortest_path_tree,
    spine_topology,
    star_topology,
    topology_adversarial_stats,
    topology_wire_stats,
)

PINS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                         "trial_kernel_pins.json")
NAMES = sorted(DEFAULT_SPECS)
GRAPH_OR_INDIVIDUAL = ["ac", "emss", "offsets", "random", "rohatgi",
                       "sign-each", "wong-lam"]
SEEDS = (7, 2003)
MIXES = ("pollution", "dos")
BLOCK = 12
TRIALS = 12
LEAVES = [f"r{i:02d}" for i in range(4)]
TOPOLOGIES = {"star": star_topology(LEAVES),
              "spine:2": spine_topology(LEAVES, 2)}
ENV = ConformanceEnvironment()


def _record(stats):
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


def _digest(results):
    """SHA-256 of one receiver's record, or of the list of several."""
    records = [_record(stats) for stats in results]
    payload = records[0] if len(records) == 1 else records
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# Each builder returns (public call, kernel arguments), built afresh:
# channels and attack plans carry RNG state.

def _wire(name, seed):
    scheme, blocks = default_scheme(name), 1 if seed == 7 else 2
    config = WireTrialConfig(block_size=BLOCK, blocks_per_trial=blocks,
                             trials=TRIALS, loss_rate=0.2, seed=seed)
    return (lambda: [wire_monte_carlo(scheme, config)],
            (scheme, TRIALS, SeededChannels.for_scheme(scheme, 0.2, seed),
             {"blocks": blocks}))


def _wire_attack(name, mix):
    scheme = default_scheme(name)
    config = WireTrialConfig(block_size=BLOCK, trials=TRIALS, loss_rate=0.1,
                             seed=11)
    return (lambda: [wire_monte_carlo(scheme, config,
                                      attack=attack_mix(mix))],
            (scheme, TRIALS, SeededChannels.for_scheme(scheme, 0.1, 11),
             {"attack": AttackSchedule(attack_mix(mix), 11)}))


def _conformance(name, seed):
    scheme = default_scheme(name)
    channels = SeededChannels.for_scheme(scheme, 0.2, seed, ENV.delay_mean,
                                         ENV.delay_std)
    return (lambda: [wire_q_stats(scheme, BLOCK, 0.2, TRIALS, seed=seed)],
            (scheme, TRIALS, channels, {}))


def _adversarial(name, mix, seed):
    scheme = default_scheme(name)
    return (lambda: [adversarial_monte_carlo(scheme, BLOCK, 0.1,
                                             attack_mix(mix), TRIALS,
                                             seed=seed)],
            (scheme, TRIALS, SeededChannels.for_scheme(scheme, 0.1, seed),
             {"attack": AttackSchedule(attack_mix(mix), seed)}))


def _adversarial_conformance(name, mix):
    scheme = default_scheme(name)
    channels = SeededChannels.for_scheme(scheme, 0.1, 7, ENV.delay_mean,
                                         ENV.delay_std)
    return (lambda: [adversarial_wire_stats(scheme, BLOCK, 0.1,
                                            attack_mix(mix), TRIALS,
                                            seed=7)],
            (scheme, TRIALS, channels,
             {"attack": AttackSchedule(attack_mix(mix), 7)}))


def _session_channel(seed):
    return Channel(loss=BernoulliLoss(0.2, seed=seed),
                   delay=GaussianDelay(0.05, 0.02, seed=seed + 1))


def _session(name, seed):
    scheme = default_scheme(name)
    return (lambda: [run_session(scheme, BLOCK, 3, _session_channel(seed))],
            (scheme, 1, FixedChannels((_session_channel(seed),)),
             {"blocks": 3}))


def _audience():
    return [
        ReceiverSpec("lan"),
        ReceiverSpec("wifi", loss=BernoulliLoss(0.2, seed=1)),
        ReceiverSpec("mobile",
                     loss=GilbertElliottLoss.from_rate_and_burst(
                         0.2, 3.0, seed=3),
                     delay=GaussianDelay(0.05, 0.02, seed=4)),
    ]


def _multicast(name):
    scheme = default_scheme(name)

    def public():
        result = run_multicast_session(scheme, BLOCK, 2, _audience())
        return [result.per_receiver[spec.name] for spec in _audience()]

    channels = FixedChannels(tuple(Channel(loss=spec.loss, delay=spec.delay)
                                   for spec in _audience()))
    return public, (scheme, 1, channels, {"receivers": 3, "blocks": 2})


def _topology(label, name, attacked):
    scheme, topology = default_scheme(name), TOPOLOGIES[label]
    trees = [shortest_path_tree(topology)]
    channels = TopologyChannels.for_scheme(scheme, topology, trees, "r00",
                                           0.15, 7)
    if not attacked:
        return (lambda: [topology_wire_stats(scheme, topology, trees, "r00",
                                             BLOCK, 0.15, TRIALS, seed=7)],
                (scheme, TRIALS, channels, {}))
    return (lambda: [topology_adversarial_stats(
                scheme, topology, trees, "r00", BLOCK, 0.15,
                attack_mix("pollution"), TRIALS, seed=7)],
            (scheme, TRIALS, channels,
             {"attack": AttackSchedule(attack_mix("pollution"), 7)}))


def _cases():
    cases = {}
    for seed in SEEDS:
        for name in GRAPH_OR_INDIVIDUAL:
            cases[f"wire/{name}/s{seed}"] = partial(_wire, name, seed)
        for name in NAMES:
            cases[f"conformance/{name}/s{seed}"] = partial(
                _conformance, name, seed)
            for mix in MIXES:
                cases[f"adversarial/{mix}/{name}/s{seed}"] = partial(
                    _adversarial, name, mix, seed)
            if name != "rohatgi-online":
                cases[f"session/{name}/s{seed}"] = partial(
                    _session, name, seed)
    for name in NAMES:
        for mix in MIXES:
            cases[f"wire-attack/{mix}/{name}"] = partial(
                _wire_attack, name, mix)
            cases[f"adversarial-conformance/{mix}/{name}"] = partial(
                _adversarial_conformance, name, mix)
        for label in TOPOLOGIES:
            cases[f"topology/{label}/{name}"] = partial(
                _topology, label, name, False)
            cases[f"topology-attack/{label}/{name}"] = partial(
                _topology, label, name, True)
    for name in GRAPH_OR_INDIVIDUAL:
        cases[f"multicast/{name}"] = partial(_multicast, name)
    return cases


CASES = _cases()

with open(PINS_PATH, "r", encoding="utf-8") as _handle:
    PINS = json.load(_handle)


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(PINS)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_public_entry_point_matches_pin(case_id):
    public, _kernel = CASES[case_id]()
    assert _digest(public()) == PINS[case_id]


@pytest.mark.parametrize("workers", [1, 2])
def test_parallel_trials_fold_to_the_pins(workers):
    drifted = []
    for case_id, build in sorted(CASES.items()):
        _public, (scheme, trials, channels, options) = build()
        results = parallel_trials(scheme, BLOCK, trials, channels,
                                  workers=workers, **options)
        if _digest(results) != PINS[case_id]:
            drifted.append(case_id)
    assert not drifted, f"parallel_trials(workers={workers}): {drifted}"
