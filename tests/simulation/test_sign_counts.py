"""Where a kept block saves a signature, and where it cannot.

The trials of a single-block Monte Carlo run send the same block, so a
scheme that keeps its compiled plan signs it once per run
(:meth:`~repro.schemes.base.BlockPlan.packetize` remembers its last
block), and so do sign-each (``n`` signatures, one per packet) and
Wong–Lam (one root signature), which keep theirs the same way
(:class:`~repro.schemes.base.LastBlock`).  A scheme that compiles a
new plan per block (``random(p)``) signs once per trial, and so does a
run of two blocks per trial, because the memo holds one block.  The
drivers take the run's signer from
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
def test_random_graph_signs_once_per_trial(signer, run, spec):
    run(spec)
    assert signer.calls == TRIALS


#: Signatures per run of every conformance scheme, in both drivers.
#: ``rohatgi-online``, SAIDA and TESLA build every trial afresh (a
#: kept block for them is out of scope here): they sign once per trial.
SIGNS_PER_RUN = {
    "rohatgi": 1,
    "emss(2,1)": 1,
    "ac(3,3)": 1,
    "offsets(1,3)": 1,
    "random(0.35,11)": TRIALS,
    "sign-each": BLOCK,
    "wong-lam": 1,
    "rohatgi-online": TRIALS,
    "saida(0.5)": TRIALS,
    "tesla(d=5,T=0.1,n=64)": TRIALS,
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
    assert signer.calls == 2 * TRIALS


def test_one_time_signer_runs_every_trial(monkeypatch):
    """A Lamport key signs once, and a run now signs once."""
    hmac = _wire("emss(2,1)")
    lamport = LamportSigner.generate(seed=b"plan-memo")
    monkeypatch.setattr("repro.simulation.trials.default_signer",
                        lambda: lamport)
    stats = _wire("emss(2,1)")
    assert stats.tallies == hmac.tallies
    assert stats.forged == 0
