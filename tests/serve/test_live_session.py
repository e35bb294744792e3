"""End-to-end acceptance: determinism, adaptation, model conformance.

One live session — 8 receivers on the local transport under virtual
time, Bernoulli loss ramping 0.05 → 0.3 mid-stream with the
"pollution" adversary on every channel — is the module-scoped
fixture; the tests assert the PR's acceptance criteria against it:

* two runs of the same config produce byte-identical per-receiver
  verification transcripts;
* the adaptive controller demonstrably switches scheme parameters
  when the injected loss rises, asserted on the run manifest;
* the measured per-position ``q_i`` at the adapted parameters sits
  within 3 standard errors of the analytic model evaluated at the
  effective loss rate ``p_eff = 1 - (1-p)(1-c)``;
* no forged content is ever accepted (end-to-end soundness).
"""

import pytest

from repro.analysis.conformance import (
    attack_mix,
    analytic_q_profile,
    deviation_rows,
    effective_loss_rate,
)
from repro.schemes.registry import make_scheme
from repro.serve.service import ServeConfig, run_live_session

RAMP_BLOCK = 20
CONFIG = ServeConfig(
    receivers=8, blocks=40, block_size=12,
    loss_schedule=((0, 0.05), (RAMP_BLOCK, 0.3)),
    attack="pollution", seed=2003,
)


@pytest.fixture(scope="module")
def session():
    return run_live_session(CONFIG)


@pytest.fixture(scope="module")
def rerun():
    return run_live_session(CONFIG)


class TestDeterminism:
    def test_transcripts_byte_identical_across_runs(self, session, rerun):
        assert set(session.transcripts) == set(rerun.transcripts)
        for receiver_id in session.transcripts:
            assert (session.transcripts[receiver_id]
                    == rerun.transcripts[receiver_id])

    def test_every_receiver_closed_every_block(self, session):
        for receiver_id, transcript in session.transcripts.items():
            lines = transcript.decode("utf-8").splitlines()
            assert len(lines) == CONFIG.blocks, receiver_id

    def test_adaptation_trace_identical_across_runs(self, session, rerun):
        first = [event.to_dict() for event in session.events]
        second = [event.to_dict() for event in rerun.events]
        assert first == second


class TestAdaptation:
    def test_controller_switches_after_loss_ramp(self, session):
        trace = session.manifest.parameters["adaptation"]
        assert len(trace) == CONFIG.blocks
        post_ramp = [entry for entry in trace
                     if entry["block_id"] >= RAMP_BLOCK and entry["switched"]]
        assert post_ramp, "no parameter switch after the loss ramp"
        # The re-design is a genuine escalation: the adapted point is
        # designed for a harsher channel than the pre-ramp one.
        before = [entry for entry in trace
                  if entry["block_id"] < RAMP_BLOCK]
        assert max(e["p_design"] for e in post_ramp) > max(
            e["p_design"] for e in before)

    def test_adapted_parameters_differ_from_initial(self, session):
        trace = session.manifest.parameters["adaptation"]
        assert trace[0]["parameters"] != trace[-1]["parameters"]

    def test_every_design_met_the_target(self, session):
        for entry in session.manifest.parameters["adaptation"]:
            if entry["feasible"]:
                assert entry["predicted_q_min"] >= CONFIG.q_min_target


class TestSoundnessEndToEnd:
    def test_no_forged_content_ever_accepted(self, session):
        assert session.forged_accepted == 0
        for stats in session.stats.values():
            assert stats.forged_accepted == 0

    def test_attack_actually_ran(self, session):
        # The invariant is vacuous unless the adversary was live: the
        # pollution mix must have cost real deliveries, and transcripts
        # must show losses/unverified arrivals, not a clean stream.
        expected = CONFIG.receivers * CONFIG.blocks * CONFIG.block_size
        assert session.delivered < expected
        statuses = b"".join(session.transcripts.values())
        assert b'"l"' in statuses or b'"a"' in statuses


class TestUdpTransport:
    def test_udp_session_end_to_end(self):
        # Real datagram endpoints on loopback: no virtual time, no
        # determinism promise, but the full sender → socket → receiver
        # → audit pipeline must close every block soundly.
        config = ServeConfig(receivers=2, blocks=3, block_size=6,
                             transport="udp", loss_schedule=((0, 0.1),),
                             seed=3, timeout_s=30.0)
        result = run_live_session(config)
        assert result.forged_accepted == 0
        for transcript in result.transcripts.values():
            assert len(transcript.decode("utf-8").splitlines()) == 3

    def test_udp_session_with_1000_packet_blocks(self):
        # A whole block sent in one burst used to overflow the loopback
        # socket buffer and drop the block's closing control frame, so
        # the barrier never released; a 1,000-packet block's old JSON
        # control frame was also larger than any UDP datagram.
        config = ServeConfig(receivers=1, blocks=2, block_size=1000,
                             transport="udp", seed=3, timeout_s=60.0)
        result = run_live_session(config)
        assert result.forged_accepted == 0
        (transcript,) = result.transcripts.values()
        assert len(transcript.decode("utf-8").splitlines()) == 2


class TestModelConformance:
    def test_adapted_q_profile_within_3_se(self, session):
        # The dominant phase at the post-ramp loss rate: the adapted
        # scheme streamed there for most of the second half.
        candidates = {phase: stats for phase, stats in session.stats.items()
                      if phase.endswith("@p=0.3")}
        assert candidates
        phase = max(candidates, key=lambda ph: sum(
            t.received for t in candidates[ph].tallies.values()))
        stats = candidates[phase]
        spec = phase.split("@p=")[0]
        scheme = make_scheme(spec)
        p_eff = effective_loss_rate(0.3, attack_mix("pollution"))
        analytic = analytic_q_profile(scheme, CONFIG.block_size, p_eff)
        rows = deviation_rows(stats, analytic, label=phase)
        worst = max(row["deviation_se"] for row in rows)
        assert worst <= 3.0, (
            f"{phase}: worst deviation {worst:.2f} SE vs model at "
            f"p_eff={p_eff:.3f}")

    def test_predicted_q_min_tracks_model(self, session):
        # The optimizer's promise at the adapted point is the same
        # analytic model the conformance suite validates; the live
        # empirical q_min must come in at or above it minus 3 SE.
        trace = session.manifest.parameters["adaptation"]
        final = trace[-1]
        assert final["predicted_q_min"] >= CONFIG.q_min_target
