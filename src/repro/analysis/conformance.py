"""Cross-scheme conformance: wire-level simulation vs analytic models.

The paper's numbers come from three places that must agree: the
analytic recurrences (Eq. 6–10 and closed forms), the vectorized
graph-level Monte Carlo, and the byte-level wire simulators.  This
module gives every scheme in :mod:`repro.schemes.registry` a
*conformance case*: a default spec string, an analytic per-position
``q_i`` profile in **send order**, and a wire-level runner producing
the matching empirical profile.  The integration suite
(``tests/integration/test_conformance.py``) iterates the registry and
fails loudly when a scheme is registered without a case here — so an
aggressive refactor (or a brand-new scheme) cannot silently drift away
from the analysis it claims to implement.

Every profile is indexed by send position, and each scheme produces
its own (:meth:`~repro.schemes.base.Scheme.q_profile`): graph schemes
through the frontier engine (:mod:`repro.analysis.frontier`), whose
vertices already are send positions; Rohatgi (Eq. 8), SAIDA and TESLA
(Eq. 6, by interval index) through their closed forms; individually
verifiable schemes are identically 1.

**Why the oracle is the exact model, not Eq. 9/10 verbatim.**  The
recurrences assume path-failure independence, which is far off at
conformance block sizes (``E_{2,1}`` at ``n = 12, p = 0.25``: ``q ≈
0.89`` at the far end, truly ``0.61``).  So the wire is compared against
the exact model, and :func:`recurrence_q_profile` is held to what it
does satisfy: an upper bound everywhere (path deaths are positively
correlated), tight near the signature, where paths cannot yet overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.compare import check_block
from repro.crypto.batch import StreamBatchSigner
from repro.crypto.signatures import HmacStubSigner, Signer
from repro.exceptions import AnalysisError
from repro.schemes.base import Scheme
from repro.schemes.registry import make_scheme
from repro.faults import (
    AttackPlan,
    BitFlipCorruption,
    BootstrapBurstForgery,
    ForgedInjection,
    KNOWN_ATTACK_MIXES,
    ReorderJitter,
    ReplayDuplication,
    TruncationCorruption,
)
from repro.simulation.adversarial import AttackSchedule
from repro.simulation.stats import SimulationStats
from repro.simulation.trials import SeededChannels, run_trials

__all__ = [
    "ConformanceEnvironment",
    "DEFAULT_SPECS",
    "default_scheme",
    "analytic_q_profile",
    "recurrence_q_profile",
    "wire_q_stats",
    "conformance_deviations",
    "deviation_rows",
    "ADVERSARIAL_MIXES",
    "COMPLETENESS_POLICY",
    "attack_mix",
    "effective_loss_rate",
    "adversarial_wire_stats",
    "adversarial_conformance_report",
]


#: Registry name -> fully parameterized default spec used by the
#: conformance suite.  Every name in
#: :func:`repro.schemes.registry.available_schemes` MUST appear here;
#: the integration test fails loudly otherwise.
DEFAULT_SPECS: Dict[str, str] = {
    "rohatgi": "rohatgi",
    "rohatgi-online": "rohatgi-online",
    "wong-lam": "wong-lam",
    "sign-each": "sign-each",
    "emss": "emss(2,1)",
    "ac": "ac(3,3)",
    "offsets": "offsets(1,3)",
    "random": "random(0.35,11)",
    "saida": "saida(0.5)",
    "tesla": "tesla(d=5,T=0.1,n=64)",
}


@dataclass(frozen=True)
class ConformanceEnvironment:
    """Network context shared by a conformance comparison.

    TESLA's analytic ``q_i`` (Eq. 6) depends on the delay model; the
    wire runner uses the same ``μ``/``σ`` so both sides describe the
    same channel.
    """

    delay_mean: float = 0.1
    delay_std: float = 0.05


def default_scheme(name: str) -> Scheme:
    """Instantiate the registry scheme the conformance suite exercises."""
    spec = DEFAULT_SPECS.get(name)
    if spec is None:
        raise AnalysisError(
            f"scheme {name!r} is registered but has no conformance case; "
            f"add a default spec and an analytic model to "
            f"repro.analysis.conformance")
    return make_scheme(spec)


# ---------------------------------------------------------------------
# Analytic side
# ---------------------------------------------------------------------

def analytic_q_profile(scheme: Scheme, n: int, p: float,
                       env: Optional[ConformanceEnvironment] = None
                       ) -> Dict[int, float]:
    """Exact ``q_i`` by **send position**: the scheme's own ``q_profile``.

    Raises :class:`AnalysisError` for schemes without an analytic
    model — the loud failure the conformance suite relies on.
    """
    check_block(n, p)
    env = env if env is not None else ConformanceEnvironment()
    return scheme.q_profile(n, p, mu=env.delay_mean, sigma=env.delay_std)


def recurrence_q_profile(scheme: Scheme, n: int,
                         p: float) -> Optional[Dict[int, float]]:
    """Eq. 9/10 independence-approximation ``q_i`` in send order.

    ``None`` except for offset schemes and augmented chains, whose
    recurrence approximates, rather than equals, the exact profile.
    """
    check_block(n, p)
    return scheme.recurrence_q_profile(n, p)


# ---------------------------------------------------------------------
# Wire side
# ---------------------------------------------------------------------

def _channels(scheme: Scheme, p: float, seed: int,
              env: Optional[ConformanceEnvironment]) -> SeededChannels:
    env = env if env is not None else ConformanceEnvironment()
    return SeededChannels.for_scheme(scheme, p, seed, env.delay_mean,
                                     env.delay_std)


def wire_q_stats(scheme: Scheme, n: int, p: float, trials: int,
                 seed: int = 7,
                 env: Optional[ConformanceEnvironment] = None
                 ) -> SimulationStats:
    """Wire-level empirical statistics for ``trials`` blocks of ``n``.

    Every scheme runs through the trial kernel with its own verifier;
    positions in the returned
    :class:`~repro.simulation.stats.SimulationStats` are 1-based send
    order, aligned with :func:`analytic_q_profile`.
    """
    return run_trials(scheme, n, 0, trials,
                      _channels(scheme, p, seed, env))[0]


def _deviation_rows(stats: SimulationStats, analytic: Dict[int, float],
                    label: str) -> List[dict]:
    """Per-position comparison rows against an analytic profile.

    Each row carries the empirical estimate, the model value, the
    binomial standard error, the absolute deviation in SE units
    (``deviation_se``, thresholded by two-sided checks) and the
    one-sided ``shortfall_se`` — how far the wire result falls *below*
    the model, the quantity lower-bound checks threshold.
    """
    rows: List[dict] = []
    for position, tally in sorted(stats.tallies.items()):
        if tally.received == 0:
            continue
        if position not in analytic:
            raise AnalysisError(
                f"{label}: wire position {position} missing from "
                f"the analytic profile")
        wire_q = tally.verified / tally.received
        model_q = analytic[position]
        # SE from the *model* q keeps the threshold meaningful at the
        # boundaries (empirical q of exactly 0 or 1 has zero plug-in
        # variance); floor at one count to avoid zero-width intervals.
        spread = max(model_q * (1.0 - model_q), 1.0 / tally.received)
        se = float(np.sqrt(spread / tally.received))
        rows.append({
            "position": position,
            "received": tally.received,
            "wire_q": wire_q,
            "model_q": model_q,
            "se": se,
            "deviation_se": abs(wire_q - model_q) / se,
            "shortfall_se": max(0.0, (model_q - wire_q) / se),
        })
    if not rows:
        raise AnalysisError(f"{label}: no positions ever received")
    return rows


#: Public name: callers outside the conformance suite (e.g. the live
#: serving layer's 3-SE acceptance check) compare their own stats
#: against an analytic profile with the same rows and thresholds.
deviation_rows = _deviation_rows


def conformance_deviations(scheme: Scheme, n: int, p: float, trials: int,
                           seed: int = 7,
                           env: Optional[ConformanceEnvironment] = None
                           ) -> List[dict]:
    """Per-position comparison rows: wire ``q_i`` vs analytic ``q_i``.

    Each row carries the empirical estimate, the model value, the
    binomial standard error of the estimate and the deviation in SE
    units — the quantity the conformance suite thresholds at 3.
    """
    stats = wire_q_stats(scheme, n, p, trials, seed=seed, env=env)
    analytic = analytic_q_profile(scheme, n, p, env=env)
    return _deviation_rows(stats, analytic, scheme.name)


# ---------------------------------------------------------------------
# Adversarial side: security-invariant conformance
# ---------------------------------------------------------------------

#: Attack-mix names with a conformance case (same tuple the CLI
#: validates ``--attack`` against).
ADVERSARIAL_MIXES = KNOWN_ATTACK_MIXES

#: How each (mix, scheme) pair is held to the effective-loss model.
#: ``two-sided`` (the default for pairs not listed) demands the
#: attacked ``q_i`` match the analytic profile at ``p_eff`` within 3
#: SE both ways — corruption behaves exactly like loss.  Pairs listed
#: as ``lower-bound`` are schemes whose receivers *salvage* authentic
#: content out of partially tampered deliveries (a bit flip confined
#: to a SAIDA share or a TESLA key-disclosure field destroys that
#: field, but the payload stays verifiable through redundancy
#: elsewhere), so corrupted-as-lost is conservative and only the
#: one-sided shortfall is thresholded.  ``skip`` marks pairs whose
#: analytic model is perturbed by a non-loss fault dimension
#: entirely: TESLA's Eq. 6 ``ξ_i`` depends on arrival *timing*, which
#: the dos mix's reorder jitter shifts.  Soundness is asserted for
#: every pair regardless of policy.
COMPLETENESS_POLICY: Dict[tuple, tuple] = {
    ("pollution", "saida"): (
        "lower-bound",
        "leave-one-out reconstruction salvages packets whose flips land "
        "in the share, and tampered packets still donate intact shares"),
    ("pollution", "tesla"): (
        "lower-bound",
        "flips confined to the key-disclosure field leave the MAC "
        "verifiable once a later packet re-discloses the key"),
    ("dos", "tesla"): (
        "skip",
        "reorder jitter shifts arrival times, perturbing the Eq. 6 "
        "safety term independently of loss"),
    ("storm", "saida"): (
        "lower-bound",
        "leave-one-out reconstruction salvages packets whose flips land "
        "in the share, and tampered packets still donate intact shares"),
    ("storm", "tesla"): (
        "lower-bound",
        "flips confined to the key-disclosure field leave the MAC "
        "verifiable once a later packet re-discloses the key"),
}


def attack_mix(name: str) -> AttackPlan:
    """Build a fresh :class:`AttackPlan` for a named conformance mix.

    ``pollution`` models a content-forging attacker: bit flips in the
    authenticated region, sequence-colliding forged injections and
    replays — pressure on trust-state integrity.  ``dos`` models a
    resource attacker: truncation, heavier replay and reorder jitter —
    pressure on buffers and decoders.  ``storm`` models the
    churn-storm adversary: a dense seq-colliding forgery burst over
    the first deliveries after every (re)seed — a bootstrap window,
    i.e. a fresh join race per trial or per (receiver, block) — over
    light corruption and replay.  Rates are fixed so the effective
    loss rate is reproducible across the suite, the
    ``ext-adversarial`` experiment and CI.
    """
    if name == "pollution":
        return AttackPlan((
            BitFlipCorruption(0.10),
            ForgedInjection(0.15, collide=True),
            ReplayDuplication(0.10),
        ))
    if name == "dos":
        return AttackPlan((
            TruncationCorruption(0.10),
            ReplayDuplication(0.15, copies=2),
            ReorderJitter(0.02),
        ))
    if name == "storm":
        return AttackPlan((
            BitFlipCorruption(0.05),
            BootstrapBurstForgery(burst_rate=0.6, window=8,
                                  tail_rate=0.05, collide=True),
            ReplayDuplication(0.05),
        ))
    raise AnalysisError(
        f"unknown attack mix {name!r} (known: {', '.join(ADVERSARIAL_MIXES)})")


def effective_loss_rate(p: float, plan: AttackPlan) -> float:
    """``p_eff = 1 - (1-p)(1-c)``: corruption composed onto loss.

    The adversarial conformance model treats a corrupted delivery as a
    lost one (it can never verify), so an attacked scheme is compared
    against its own analytic profile evaluated at ``p_eff``.
    """
    if not 0.0 <= p <= 1.0:
        raise AnalysisError(f"loss rate must be in [0, 1], got {p}")
    return 1.0 - (1.0 - p) * (1.0 - plan.corruption_rate)


def adversarial_wire_stats(scheme: Scheme, n: int, p: float,
                           plan: AttackPlan, trials: int, seed: int = 7,
                           env: Optional[ConformanceEnvironment] = None,
                           workers: Optional[int] = None,
                           signer: Optional[Signer] = None
                           ) -> SimulationStats:
    """Attacked wire-level statistics for ``trials`` blocks of ``n``.

    The adversarial counterpart of :func:`wire_q_stats`: one driver
    covers every scheme family.  ``workers`` shards the trials across
    a process pool (bit-for-bit identical to the serial run).
    ``signer`` overrides the block signer — a
    :class:`~repro.crypto.batch.StreamBatchSigner` runs the whole
    matrix over batch attachments instead of plain signatures.
    """
    from repro.parallel.wire import parallel_trials

    return parallel_trials(scheme, n, trials, _channels(scheme, p, seed, env),
                           workers=workers or 1,
                           attack=AttackSchedule(plan, seed),
                           signer=signer)[0]


def adversarial_conformance_report(name: str, n: int, p: float, mix: str,
                                   trials: int, seed: int = 7,
                                   env: Optional[ConformanceEnvironment]
                                   = None,
                                   workers: Optional[int] = None,
                                   batch_size: int = 1) -> dict:
    """Security-invariant conformance for one (scheme, mix) pair.

    Two invariants, reported as one dict:

    * **soundness** — no forged or corrupted content was ever
      accepted: ``counters["forged_accepted"]`` must be 0 and ``sound``
      records that;
    * **completeness** — the attack gains the adversary nothing beyond
      loss: the attacked empirical ``q_i`` matches the scheme's
      analytic profile at :func:`effective_loss_rate` per the pair's
      :data:`COMPLETENESS_POLICY` (``conformant`` is ``None`` for
      skipped pairs).

    ``passed`` folds both together.  With ``batch_size > 1`` the block
    signer is wrapped in a :class:`~repro.crypto.batch.\
StreamBatchSigner`, so every signature on the attacked wire is a batch
    attachment — the invariants must hold over the batch construction
    exactly as over plain signatures.
    """
    scheme = default_scheme(name)
    plan = attack_mix(mix)
    p_eff = effective_loss_rate(p, plan)
    signer: Optional[Signer] = None
    if batch_size > 1:
        signer = StreamBatchSigner(
            HmacStubSigner(key=b"adversarial-wire", signature_size=128),
            batch_size, seed=seed)
    stats = adversarial_wire_stats(scheme, n, p, plan, trials, seed=seed,
                                   env=env, workers=workers, signer=signer)
    policy, reason = COMPLETENESS_POLICY.get((mix, name), ("two-sided", ""))
    report = {
        "scheme": name,
        "mix": mix,
        "batch_size": batch_size,
        "n": n,
        "trials": trials,
        "loss_rate": p,
        "effective_loss_rate": p_eff,
        "policy": policy,
        "policy_reason": reason,
        "sound": stats.forged_accepted == 0,
        "counters": {
            "sent": stats.sent,
            "dropped": stats.dropped,
            "corrupted": stats.corrupted,
            "injected": stats.injected,
            "replayed": stats.replayed,
            "undecodable": stats.undecodable,
            "forged_rejected": stats.forged_rejected,
            "replays_dropped": stats.replays_dropped,
            "forged_accepted": stats.forged_accepted,
        },
    }
    if policy == "skip":
        report["rows"] = []
        report["max_deviation_se"] = None
        report["conformant"] = None
    else:
        analytic = analytic_q_profile(scheme, n, p_eff, env=env)
        rows = _deviation_rows(stats, analytic, f"{name}/{mix}")
        key = "deviation_se" if policy == "two-sided" else "shortfall_se"
        worst = max(row[key] for row in rows)
        report["rows"] = rows
        report["max_deviation_se"] = worst
        report["conformant"] = worst <= 3.0
    report["passed"] = report["sound"] and report["conformant"] is not False
    return report
