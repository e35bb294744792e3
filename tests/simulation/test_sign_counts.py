"""A run signs once per block it sends, whatever its trial count.

The trials of a Monte Carlo run send the same packets over fresh loss
draws, so :func:`~repro.simulation.trials.run_trials` packetizes the
run once (:meth:`~repro.schemes.base.Scheme.new_trial`): every scheme
signs a single-block run once (sign-each ``n`` times, one signature
per packet), a scheme that compiles a new plan per block
(``random(p)``) included, and a run of two blocks per trial signs
twice.  The drivers take the run's signer from
:func:`~repro.crypto.signatures.default_signer`, which these tests
replace with a counting one.
"""

import pytest

from repro.analysis.conformance import DEFAULT_SPECS, attack_mix
from repro.crypto.signatures import HmacStubSigner, LamportSigner
from repro.schemes.registry import make_scheme
from repro.simulation import WireTrialConfig, wire_monte_carlo
from repro.simulation.adversarial import adversarial_monte_carlo

TRIALS = 5
BLOCK = 12


class CountingSigner:
    """HMAC signatures, counting each :meth:`sign`."""

    name = "counting"

    def __init__(self) -> None:
        self._inner = HmacStubSigner(key=b"sign-counts")
        self.signature_size = self._inner.signature_size
        self.calls = 0

    def sign(self, message: bytes) -> bytes:
        self.calls += 1
        return self._inner.sign(message)

    def verify(self, message: bytes, signature: bytes) -> bool:
        return self._inner.verify(message, signature)


@pytest.fixture
def signer(monkeypatch):
    counting = CountingSigner()
    monkeypatch.setattr("repro.simulation.trials.default_signer",
                        lambda: counting)
    return counting


def _wire(spec, blocks_per_trial=1):
    config = WireTrialConfig(block_size=BLOCK, trials=TRIALS,
                             blocks_per_trial=blocks_per_trial,
                             loss_rate=0.2, seed=5)
    return wire_monte_carlo(make_scheme(spec), config)


def _adversarial(spec):
    return adversarial_monte_carlo(make_scheme(spec), BLOCK, 0.1,
                                   attack_mix("pollution"), TRIALS, seed=5)


@pytest.mark.parametrize("run", [_wire, _adversarial],
                         ids=["wire", "adversarial"])
@pytest.mark.parametrize("spec", ["emss(2,1)", "ac(3,3)", "offsets(1,3)",
                                  "rohatgi"])
def test_plan_schemes_sign_once_per_run(signer, run, spec):
    stats = run(spec)
    assert signer.calls == 1
    assert stats.forged_accepted == 0
    assert sum(t.verified for t in stats.tallies.values()) > 0


@pytest.mark.parametrize("run", [_wire, _adversarial],
                         ids=["wire", "adversarial"])
@pytest.mark.parametrize("spec", ["random(0.35,11)", "random(0.35)"],
                         ids=["seeded", "unseeded"])
def test_random_graph_signs_once_per_run(signer, run, spec):
    """An unseeded graph is drawn once per run, not once per trial."""
    run(spec)
    assert signer.calls == 1


#: Signatures per run of every conformance scheme, in both drivers.
SIGNS_PER_RUN = {
    "rohatgi": 1,
    "emss(2,1)": 1,
    "ac(3,3)": 1,
    "offsets(1,3)": 1,
    "random(0.35,11)": 1,
    "sign-each": BLOCK,
    "wong-lam": 1,
    "rohatgi-online": 1,
    "saida(0.5)": 1,
    "tesla(d=5,T=0.1,n=64)": 1,
}


def test_every_conformance_scheme_has_a_count():
    assert set(SIGNS_PER_RUN) == set(DEFAULT_SPECS.values())


@pytest.mark.parametrize("run", [_wire, _adversarial],
                         ids=["wire", "adversarial"])
@pytest.mark.parametrize("spec", sorted(SIGNS_PER_RUN))
def test_signatures_per_run(signer, run, spec):
    stats = run(spec)
    assert signer.calls == SIGNS_PER_RUN[spec]
    assert stats.forged_accepted == 0
    assert sum(t.verified for t in stats.tallies.values()) > 0


def test_two_blocks_per_trial_sign_every_block(signer):
    _wire("emss(2,1)", blocks_per_trial=2)
    assert signer.calls == 2


def test_one_time_signer_runs_every_trial(monkeypatch):
    """A Lamport key signs once, and a run of these schemes signs once."""
    for spec in ("emss(2,1)", "rohatgi-online", "saida(0.5)", "wong-lam",
                 "tesla(d=5,T=0.1,n=64)"):
        monkeypatch.undo()
        hmac = _wire(spec)
        lamport = LamportSigner.generate(seed=spec.encode())
        monkeypatch.setattr("repro.simulation.trials.default_signer",
                            lambda: lamport)
        stats = _wire(spec)
        assert stats.tallies == hmac.tallies, spec
        assert sum(t.verified for t in stats.tallies.values()) > 0, spec
        assert stats.forged == 0, spec
