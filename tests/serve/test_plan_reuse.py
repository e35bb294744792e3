"""The serve channel factory builds one attack plan per receiver.

:func:`~repro.topology.channel.topology_channel_factory` builds a
receiver's plan on its first cell and reseeds it for every later one.
A counting wrapper around the session's plan factory pins the count:
one build per receiver ever transmitted to, however many blocks — and
a reused plan's transcripts are byte-identical run to run.
"""

from repro.serve import service
from repro.serve.membership import MembershipPlan
from repro.serve.service import ServeConfig, run_live_session


def _counted_session(monkeypatch, config):
    """Run ``config``; return (result, plan builds, receivers sent to)."""
    builds = []
    indexes = set()
    mix = service.attack_mix
    make_factory = service.topology_channel_factory

    def counting_mix(name):
        builds.append(name)
        return mix(name)

    def recording_factory(*args, **kwargs):
        build = make_factory(*args, **kwargs)

        def recorded(receiver_index, block_id, loss_rate):
            indexes.add(receiver_index)
            return build(receiver_index, block_id, loss_rate)

        return recorded

    monkeypatch.setattr(service, "attack_mix", counting_mix)
    monkeypatch.setattr(service, "topology_channel_factory",
                        recording_factory)
    result = run_live_session(config)
    return result, len(builds), indexes


class TestOnePlanPerReceiver:
    def test_pollution_session_builds_one_plan_per_receiver(
            self, monkeypatch):
        config = ServeConfig(receivers=6, blocks=5, block_size=8,
                             attack="pollution", seed=11)
        first, builds, indexes = _counted_session(monkeypatch, config)
        assert builds == 6
        assert indexes == set(range(6))
        second, _, _ = _counted_session(monkeypatch, config)
        assert first.transcripts == second.transcripts

    def test_storm_churn_builds_one_plan_per_member_sent_to(
            self, monkeypatch):
        config = ServeConfig(receivers=4, blocks=24, block_size=10,
                             loss_schedule=((0, 0.1),), churn="storm",
                             attack="storm", seed=2003)
        membership = MembershipPlan.from_spec(
            config.churn, config.receivers, config.blocks, config.seed)
        first, builds, indexes = _counted_session(monkeypatch, config)
        # Joiners were transmitted to, so reuse is exercised beyond the
        # initial members.
        assert len(indexes) > config.receivers
        assert len(indexes) <= len(membership.universe)
        assert builds == len(indexes)
        second, _, _ = _counted_session(monkeypatch, config)
        assert first.transcripts == second.transcripts
