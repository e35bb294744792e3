"""Cross-scheme conformance: wire-level simulation vs analytic models.

For every scheme in :mod:`repro.schemes.registry` the byte-level wire
simulation must reproduce the analytic per-position ``q_i`` profile
within 3 binomial standard errors at two loss rates.  The suite is
parametrized over :func:`available_schemes`, so registering a new
scheme automatically adds it here — and fails loudly (via
:func:`default_scheme` / :func:`analytic_q_profile` raising
:class:`AnalysisError`) until a conformance case exists for it.

The oracle per scheme is the *exact* analytic model (closed forms
where exact, the frontier engine over the compiled dependence-graph
for every other graph scheme).  The engine reaches past the
enumerable block sizes, so the paper's Augmented Chain also runs at
``n = 32`` and ``n = 128``.  The paper's Eq. 9/10
recurrences approximate those exact profiles under a path-independence
assumption; they are checked separately for the relationship they
actually satisfy — optimistic upper bound everywhere, tight near the
signature (see ``test_recurrence_upper_bounds_exact_model``).
"""

import pytest

from repro.analysis.compare import TeslaEnvironment, analytic_q_min
from repro.analysis.conformance import (
    DEFAULT_SPECS,
    ConformanceEnvironment,
    analytic_q_profile,
    conformance_deviations,
    default_scheme,
    recurrence_q_profile,
)
from repro.exceptions import AnalysisError
from repro.schemes.base import Scheme
from repro.schemes.registry import available_schemes

BLOCK = 12
TRIALS = 200
SEED = 7
LOSS_RATES = (0.1, 0.25)
MAX_DEVIATION_SE = 3.0
#: Augmented-chain block sizes beyond exhaustive enumeration.
AC_BLOCKS = (32, 128)
AC_TRIALS = 600

SCHEME_NAMES = sorted(available_schemes())


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_every_registered_scheme_has_a_conformance_case(name):
    """Registry and conformance table must stay in lockstep."""
    assert name in DEFAULT_SPECS, (
        f"scheme {name!r} is registered but has no entry in "
        f"repro.analysis.conformance.DEFAULT_SPECS")
    scheme = default_scheme(name)
    profile = analytic_q_profile(scheme, BLOCK, 0.2)
    assert set(profile) == set(range(1, BLOCK + 1))
    assert all(0.0 <= q <= 1.0 for q in profile.values())


def _assert_wire_conforms(scheme, n, p, trials):
    rows = conformance_deviations(scheme, n, p, trials, seed=SEED)
    worst = max(rows, key=lambda row: row["deviation_se"])
    assert worst["deviation_se"] <= MAX_DEVIATION_SE, (
        f"{scheme.name} at p={p}: wire q={worst['wire_q']:.4f} vs "
        f"model q={worst['model_q']:.4f} at send position "
        f"{worst['position']} deviates {worst['deviation_se']:.2f} SE "
        f"(> {MAX_DEVIATION_SE}) over {worst['received']} receipts")


@pytest.mark.parametrize("p", LOSS_RATES)
@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_wire_q_matches_analytic_model(name, p):
    """Wire-level ``q_i`` within 3 SE of the analytic profile."""
    _assert_wire_conforms(default_scheme(name), BLOCK, p, TRIALS)


@pytest.mark.parametrize("p", LOSS_RATES)
@pytest.mark.parametrize("n", AC_BLOCKS)
def test_ac_wire_q_matches_exact_model_at_scale(n, p):
    """The paper's ``C_{3,3}`` against its exact profile, past n = 16."""
    _assert_wire_conforms(default_scheme("ac"), n, p, AC_TRIALS)


def _assert_recurrence_bounds(scheme, n, p):
    recurrence = recurrence_q_profile(scheme, n, p)
    exact = analytic_q_profile(scheme, n, p)
    for position in exact:
        assert recurrence[position] >= exact[position] - 1e-9, (
            f"{scheme.name} at p={p}: recurrence "
            f"{recurrence[position]:.6f} below exact "
            f"{exact[position]:.6f} at send position {position}")
    offsets = getattr(scheme, "offsets", None)
    if offsets:
        tight = range(n - max(offsets), n + 1)
    else:  # augmented chain: only the signature packet is trivially tight
        tight = (n,)
    for position in tight:
        assert recurrence[position] == pytest.approx(exact[position],
                                                     abs=1e-12), (
            f"{scheme.name} at p={p}: recurrence diverges from the "
            f"exact model at near-signature position {position}")


@pytest.mark.parametrize("p", LOSS_RATES)
@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_recurrence_upper_bounds_exact_model(name, p):
    """Eq. 9/10 must upper-bound the exact profile, tightly near the root.

    The recurrences assume path-failure independence; path-death
    events are positively correlated, so the approximation can only
    err optimistically.  Within ``max(offsets)`` of the signature no
    two dependence paths share a vertex yet, so there the recurrence
    must be exact.
    """
    scheme = default_scheme(name)
    if recurrence_q_profile(scheme, BLOCK, p) is None:
        pytest.skip(f"{scheme.name}: conformance model is already exact")
    _assert_recurrence_bounds(scheme, BLOCK, p)


@pytest.mark.parametrize("p", LOSS_RATES)
@pytest.mark.parametrize("n", AC_BLOCKS)
def test_ac_recurrence_upper_bounds_exact_model_at_scale(n, p):
    _assert_recurrence_bounds(default_scheme("ac"), n, p)


@pytest.mark.parametrize("name", SCHEME_NAMES)
@pytest.mark.parametrize("n, p", [(BLOCK, 1.5), (BLOCK, -0.1), (0, 0.2)])
def test_front_doors_reject_bad_inputs_for_every_scheme(name, n, p):
    scheme = default_scheme(name)
    with pytest.raises(AnalysisError):
        analytic_q_profile(scheme, n, p)
    with pytest.raises(AnalysisError):
        recurrence_q_profile(scheme, n, p)
    with pytest.raises(AnalysisError):
        analytic_q_min(scheme, n, p)


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_q_min_is_the_exact_minimum_without_a_recurrence(name):
    scheme = default_scheme(name)
    if recurrence_q_profile(scheme, BLOCK, 0.2) is not None:
        pytest.skip(f"{scheme.name}: q_min follows its recurrence")
    env = ConformanceEnvironment()
    tesla_env = None
    if scheme.timed:  # the same delay model on both sides
        tesla_env = TeslaEnvironment(
            t_disclose=scheme.parameters.disclosure_delay,
            mu=env.delay_mean, sigma=env.delay_std)
    assert analytic_q_min(scheme, BLOCK, 0.2, tesla_env) == min(
        analytic_q_profile(scheme, BLOCK, 0.2, env).values())


class _UnmodeledScheme(Scheme):
    """A scheme registered without any conformance/analytic coverage."""

    @property
    def name(self):
        return "unmodeled"

    def build_graph(self, n):
        return None


def test_missing_spec_fails_loudly():
    with pytest.raises(AnalysisError, match="no conformance case"):
        default_scheme("no-such-scheme")


def test_missing_analytic_model_fails_loudly():
    with pytest.raises(AnalysisError, match="no analytic q_i model"):
        analytic_q_profile(_UnmodeledScheme(), BLOCK, 0.2)
