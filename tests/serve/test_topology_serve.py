"""Topology serve sessions: differential identity, redundancy, adaptation.

The acceptance criteria this file pins:

* ``star`` is the default topology, and a star session is
  **byte-identical** to the independent per-receiver channel session
  the serve path ran before every session was topology-backed — the
  edge-seed derivation is the per-(receiver, block) cell formula with
  leaf edges indexed by receiver order, so the transcripts match the
  digests recorded from that path exactly (``test_serve_pins.py``
  extends the same differential to every artifact);
* topology sessions are deterministic: double runs reproduce every
  transcript byte, and the pinned shared-spine session matches its
  versioned golden record (``tests/data/traces/topology-session.
  expected.json``).  The serve loop is single-process by design;
  worker-count invariance of the underlying per-(edge, block) draws
  is pinned at the trial-shard layer
  (``tests/topology/test_conformance_topology.py``);
* ``k = 2`` redundant trees strictly improve the delivered-verified
  ratio over ``k = 1`` on a dual-plane spine at loss ≥ 0.2, with the
  duplicate copies suppressed at the receiver and accounted;
* per-subtree adaptation beats one global controller on a
  heterogeneous (hot-spine) topology;
* loss reports carry subtree labels and the grouped sender keeps
  per-group phases apart;
* subtree adaptation composes with batch signing: one Merkle root per
  flush covers every group's packets.
"""

import hashlib
import json
import math
import os

import pytest

from repro.exceptions import SimulationError
from repro.obs import MetricsRegistry, use_registry
from repro.serve.cli import config_from_args, _build_parser
from repro.serve.loadgen import run_loadgen
from repro.serve.service import ServeConfig, run_live_session
from repro.simulation.golden import (
    record_topology_session,
    topology_session_path,
)

TRACE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                         "traces")

BASE = dict(receivers=6, blocks=8, block_size=8, seed=11,
            loss_schedule=((0, 0.1),))

#: SHA-256 over the sorted transcripts of ``BASE`` sessions, recorded on
#: independent per-receiver channels (plain, then under pollution).
INDEPENDENT_DIGESTS = {
    None: "565ed3deb220fcdac09f67ec9c988d814d4d995ad17143cd239d3e7a804545f4",
    "pollution":
        "5f072772b64aa9ab72c7e5aeb8812249d23b5dc8ba0721727047016f10c3ef49",
}


def _transcripts_digest(result) -> str:
    digest = hashlib.sha256()
    for receiver_id in sorted(result.transcripts):
        digest.update(receiver_id.encode() + b"\n")
        digest.update(result.transcripts[receiver_id])
    return digest.hexdigest()


@pytest.fixture(scope="module")
def plain_session():
    return run_live_session(ServeConfig(**BASE))


@pytest.fixture(scope="module")
def star_session():
    return run_live_session(ServeConfig(**BASE, topology="star"))


class TestStarDifferential:
    def test_star_transcripts_byte_identical_to_independent(
            self, plain_session, star_session):
        assert ServeConfig(**BASE).topology == "star"
        assert star_session.transcripts == plain_session.transcripts
        assert (_transcripts_digest(star_session)
                == INDEPENDENT_DIGESTS[None])

    def test_star_attacked_transcripts_byte_identical(self):
        star = run_live_session(ServeConfig(**BASE, attack="pollution",
                                            topology="star"))
        assert _transcripts_digest(star) == INDEPENDENT_DIGESTS["pollution"]
        assert star.forged_accepted == 0

    def test_double_run_reproduces_every_byte(self, star_session):
        rerun = run_live_session(ServeConfig(**BASE, topology="star"))
        assert rerun.transcripts == star_session.transcripts


class TestPinnedTopologySession:
    def test_pinned_spine_session_matches_golden_record(self):
        with open(topology_session_path(TRACE_DIR), "r",
                  encoding="utf-8") as handle:
            stored = json.load(handle)
        live = record_topology_session()
        assert live == stored, (
            "the pinned topology session diverged from its golden "
            "record — edge seeding, tree construction or grouped "
            "packetization changed; if intentional, regenerate with "
            "'PYTHONPATH=src python -m repro.simulation.golden "
            "tests/data/traces'")


def _delivered_verified_ratio(result, config) -> float:
    verified = sum(tally.verified for stats in result.stats.values()
                   for tally in stats.tallies.values())
    return verified / (config.blocks * config.block_size * config.receivers)


class TestRedundantTrees:
    @pytest.fixture(scope="class")
    def k_sessions(self):
        base = dict(receivers=8, blocks=16, block_size=12, seed=7,
                    loss_schedule=((0, 0.25),), topology="dualspine:2")
        k1 = ServeConfig(**base, trees=1)
        k2 = ServeConfig(**base, trees=2)
        return (k1, run_live_session(k1)), (k2, run_live_session(k2))

    def test_k2_strictly_improves_delivered_verified_ratio(self,
                                                           k_sessions):
        (k1, r1), (k2, r2) = k_sessions
        ratio_1 = _delivered_verified_ratio(r1, k1)
        ratio_2 = _delivered_verified_ratio(r2, k2)
        assert ratio_2 > ratio_1, (
            f"k=2 ratio {ratio_2:.4f} does not beat k=1 {ratio_1:.4f} "
            f"at spine loss 0.25")

    def test_duplicates_suppressed_only_with_redundancy(self, k_sessions):
        (_k1, r1), (_k2, r2) = k_sessions
        assert r1.duplicates_suppressed == 0
        assert r2.duplicates_suppressed > 0

    def test_redundancy_over_the_default_star_is_a_no_op(self,
                                                         plain_session):
        # A star has one root->leaf path per receiver, so a second tree
        # is the same path, deduplicated before any draw.
        doubled = run_live_session(ServeConfig(**BASE, trees=2))
        assert doubled.transcripts == plain_session.transcripts
        assert doubled.duplicates_suppressed == 0


class TestSubtreeAdaptation:
    HOT = "spine:2:3,1"
    RAMP = dict(receivers=8, blocks=24, block_size=12, seed=7,
                loss_schedule=((0, 0.05), (8, 0.15), (16, 0.3)))

    @pytest.fixture(scope="class")
    def sessions(self):
        global_cfg = ServeConfig(**self.RAMP, topology=self.HOT)
        sub_cfg = ServeConfig(**self.RAMP, topology=self.HOT,
                              subtree_adaptive=True)
        return ((global_cfg, run_live_session(global_cfg)),
                (sub_cfg, run_live_session(sub_cfg)))

    def test_subtree_adaptation_beats_global_on_hot_spine(self, sessions):
        (global_cfg, global_run), (sub_cfg, sub_run) = sessions
        global_ratio = _delivered_verified_ratio(global_run, global_cfg)
        sub_ratio = _delivered_verified_ratio(sub_run, sub_cfg)
        assert sub_ratio > global_ratio, (
            f"per-subtree {sub_ratio:.4f} does not beat global "
            f"{global_ratio:.4f} on a hot spine")

    def test_reports_carry_subtree_labels(self, sessions):
        (_cfg, _global_run), (_sub_cfg, sub_run) = sessions
        labels = {report.subtree
                  for reports in sub_run.reports.values()
                  for report in reports}
        assert labels == {"s00", "s01"}

    def test_grouped_phases_stay_apart(self, sessions):
        _, (_sub_cfg, sub_run) = sessions
        groups = {phase.split("@")[1] for phase in sub_run.stats}
        assert groups == {"s00", "s01"}

    def test_events_are_stamped_per_group(self, sessions):
        _, (_sub_cfg, sub_run) = sessions
        assert {event.group for event in sub_run.events} == {"s00", "s01"}
        for event in sub_run.events:
            assert event.to_dict()["group"] in ("s00", "s01")

    def test_hot_subtree_designs_heavier_than_clean(self, sessions):
        # Both groups saturate at the design ceiling once the ramp hits
        # 0.3, so compare the whole trajectory: the 3x-hot subtree must
        # never design lighter than its clean sibling and must design
        # strictly heavier on average.
        _, (_sub_cfg, sub_run) = sessions
        trajectory = {"s00": [], "s01": []}
        for event in sub_run.events:
            trajectory[event.group].append(event.p_design)
        paired = list(zip(trajectory["s00"], trajectory["s01"]))
        assert all(hot >= clean for hot, clean in paired)
        assert sum(trajectory["s00"]) > sum(trajectory["s01"]), (
            "the 3x-hot subtree should track a heavier design point")

    def test_validation_gates(self):
        with pytest.raises(SimulationError):
            ServeConfig(**BASE, topology="spine:2", subtree_adaptive=True,
                        adaptive=False)


class TestSubtreeBatchSigning:
    CONFIG = ServeConfig(receivers=8, blocks=20, block_size=8, seed=19,
                         loss_schedule=((0, 0.05), (10, 0.3)),
                         topology="spine:4", subtree_adaptive=True,
                         batch_size=8, attack="pollution")

    @pytest.fixture(scope="class")
    def runs(self):
        runs = []
        for _ in range(2):
            with use_registry(MetricsRegistry()) as registry:
                runs.append((run_live_session(self.CONFIG),
                             dict(registry.counters)))
        return runs

    def test_sound_under_pollution(self, runs):
        for session, _ in runs:
            assert session.forged_accepted == 0

    def test_double_run_is_byte_identical(self, runs):
        (first, _), (second, _) = runs
        assert first.transcripts == second.transcripts
        assert ([e.to_dict() for e in first.events]
                == [e.to_dict() for e in second.events])

    def test_one_root_per_flush_covers_every_group(self, runs):
        session, counters = runs[0]
        groups = {phase.split("@")[1] for phase in session.stats}
        assert groups == {"s00", "s01", "s02", "s03"}
        signs = counters["serve.batch.signs"]
        assert signs <= math.ceil(self.CONFIG.blocks / 8)
        # Every receiver verifies its own group's proofs against the
        # shared root cache: per-group roots would need more verifies
        # than signatures.
        assert 0 < counters["serve.batch.root_verifies"] <= signs


class TestCliAndLoadgen:
    def test_cli_flags_round_trip(self):
        parser = _build_parser("test-serve", soak=False)
        args = parser.parse_args([
            "--topology", "spine:2:3,1", "--trees", "2",
            "--subtree-adaptive", "--receivers", "4",
        ])
        # trees=2 with a spine spec is valid config-side; the parse
        # itself must carry all three knobs through.
        config = config_from_args(args)
        assert config.topology == "spine:2:3,1"
        assert config.trees == 2
        assert config.subtree_adaptive is True

    def test_loadgen_summary_reports_topology(self):
        config = ServeConfig(receivers=4, blocks=4, block_size=8, seed=11,
                             topology="dualspine:2", trees=2,
                             loss_schedule=((0, 0.2),))
        result = run_loadgen(config)
        assert result.ok
        assert result.summary["topology"] == "dualspine:2"
        assert result.summary["trees"] == 2
        assert result.summary["subtree_adaptive"] is False
        assert result.summary["duplicates_suppressed"] \
            == result.session.duplicates_suppressed > 0

    def test_loadgen_summary_reports_the_default_star(self):
        config = ServeConfig(receivers=2, blocks=2, block_size=6, seed=11)
        result = run_loadgen(config)
        assert result.summary["topology"] == "star"
        assert result.summary["trees"] == 1
        assert result.summary["subtree_adaptive"] is False
        assert result.summary["duplicates_suppressed"] == 0
