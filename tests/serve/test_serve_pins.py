"""Pinned serve sessions: one SHA-256 per config over every artifact.

Each digest covers what a session emits deterministically: the
per-receiver transcripts, the lifecycle events (``sample=1``), the
timeseries rows, the health alerts (sorted) and the adaptation events.
The digests were recorded when the default session still streamed over
independent per-receiver channels; the default session now streams over
a ``star`` topology, so the default-topology rows are the proof that the
star *is* the flat channel model, byte for byte, attacked or not.

The grid crosses the serve features that meet in one send path: batch
signing, churn, non-adaptive and AC sessions, per-subtree adaptation,
redundant trees, and subtree adaptation under churn.

If a change is meant to move these bytes, regenerate the table with::

    PYTHONPATH=src python tests/serve/test_serve_pins.py
"""

import hashlib
import json

import pytest

from repro.obs.health import AlertEvent, HealthMonitor
from repro.obs.lifecycle import LifecycleTracer
from repro.obs.timeseries import TimeseriesSampler
from repro.serve.service import ServeConfig, run_live_session

BASE = dict(receivers=4, blocks=10, block_size=8, payload_size=16,
            loss_schedule=((0, 0.05), (5, 0.3)), seed=23)

CONFIGS = {
    "plain": dict(),
    "pollution": dict(attack="pollution"),
    "dos": dict(attack="dos"),
    "batch8-deadline": dict(batch_size=8, flush_deadline=0.02),
    "storm-pollution": dict(churn="storm", attack="pollution"),
    "flap3": dict(churn="flap:3"),
    "non-adaptive": dict(adaptive=False),
    "ac": dict(scheme_family="ac"),
    "spine2-subtree": dict(topology="spine:2", subtree_adaptive=True),
    "dualspine2-trees2": dict(topology="dualspine:2", trees=2),
    "spine2-subtree-storm": dict(topology="spine:2", subtree_adaptive=True,
                                 churn="storm"),
}

PINS = {
    "plain":
        "84308067a305eeb4ac77bcd4d036de2f03ecabb742e02139082defac4ba706f8",
    "pollution":
        "69a26695f27d06e7d413c25ec81f33e6dc2f9e4850915cb1900ee5b3da86cc71",
    "dos":
        "a7e45ae4aa055ede6df1b781418e6b28c501688ac4929f1669714289c8b0287d",
    "batch8-deadline":
        "7af3654cfade8a3a219df7910893cfb64c1035c534c210857b29f674d10a81cd",
    "storm-pollution":
        "73d885a79e7fc6f2d469279d95667616ef9b1cc1a22e19780c2212ac8996d740",
    "flap3":
        "7e5c4c6c148c198a9b49be78059f76817e17d8057259c4bc7e13d3c62a25520d",
    "non-adaptive":
        "28b45b2ccdd77b8eeb91ead7107bb3275eddcb4fc2a2629d31502abddd8347ba",
    "ac":
        "f992f0984238fc02551799a85861db986d0fcdf44d6599658058a2f7f669cc34",
    "spine2-subtree":
        "7c5fc7adca79358ae59cf73a8855e6950561e38d9885339464e3ba397eb21760",
    "dualspine2-trees2":
        "8f96901b61363be6de0083c849aaa8c60b5120cb89d5cda0aa8a15df5add8d05",
    "spine2-subtree-storm":
        "e5124a6c4c6cdc1faf881042b2fedce443469c919c2e3b6db93828282e7c178a",
}


def _canonical(record) -> bytes:
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode() + b"\n"


def session_digest(config: ServeConfig) -> str:
    """SHA-256 over every deterministic artifact of one session."""
    lifecycle = LifecycleTracer(run_seed=config.seed, sample=1)
    timeseries = TimeseriesSampler(interval_s=0.01)
    health = HealthMonitor()
    result = run_live_session(config, lifecycle=lifecycle,
                              timeseries=timeseries, health=health)
    digest = hashlib.sha256()
    for receiver_id in sorted(result.transcripts):
        digest.update(receiver_id.encode() + b"\n")
        digest.update(result.transcripts[receiver_id])
    for event in lifecycle.events():
        digest.update(_canonical(event))
    for row in timeseries.samples:
        digest.update(_canonical(row))
    for alert in sorted(health.alerts, key=AlertEvent.sort_key):
        digest.update(_canonical(alert.to_dict()))
    digest.update(_canonical([event.to_dict() for event in result.events]))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_session_matches_pin(name):
    config = ServeConfig(**BASE, **CONFIGS[name])
    assert session_digest(config) == PINS[name], (
        f"serve session {name!r} diverged from its pinned bytes")


if __name__ == "__main__":
    for name in CONFIGS:
        digest = session_digest(ServeConfig(**BASE, **CONFIGS[name]))
        print(f'    "{name}":\n        "{digest}",')
