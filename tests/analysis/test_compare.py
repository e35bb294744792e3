"""Unit tests for the cross-scheme comparison API (Fig. 8/9/10)."""

import pytest

from repro.analysis import augmented_chain as ac_analysis
from repro.analysis import emss as emss_analysis
from repro.analysis import rohatgi as rohatgi_analysis
from repro.analysis import saida as saida_analysis
from repro.analysis import tesla as tesla_analysis
from repro.analysis.compare import (
    TeslaEnvironment,
    analytic_q_min,
    overhead_delay_table,
    sweep_block_size,
    sweep_loss,
)
from repro.exceptions import AnalysisError
from repro.schemes.augmented_chain import AugmentedChainScheme
from repro.schemes.base import Scheme
from repro.schemes.emss import EmssScheme, GenericOffsetScheme
from repro.analysis.conformance import (
    DEFAULT_SPECS,
    ConformanceEnvironment,
    analytic_q_profile,
)
from repro.schemes.registry import make_scheme, paper_comparison_schemes
from repro.schemes.rohatgi import RohatgiScheme
from repro.schemes.sign_each import SignEachScheme
from repro.schemes.tesla import TeslaScheme
from repro.schemes.wong_lam import WongLamScheme


class TestDispatch:
    def test_rohatgi(self):
        assert analytic_q_min(RohatgiScheme(), 50, 0.1) == pytest.approx(
            rohatgi_analysis.q_min(50, 0.1))

    @pytest.mark.parametrize("name", ["rohatgi", "rohatgi-online"])
    @pytest.mark.parametrize("n, p", [(12, 0.2), (5, 0.5), (32, 0.05)])
    def test_rohatgi_family_q_min_is_profile_minimum(self, name, n, p):
        scheme = make_scheme(name)
        assert analytic_q_min(scheme, n, p) == pytest.approx(
            min(analytic_q_profile(scheme, n, p).values()))

    def test_individually_verifiable(self):
        assert analytic_q_min(WongLamScheme(), 50, 0.9) == 1.0
        assert analytic_q_min(SignEachScheme(), 50, 0.9) == 1.0

    def test_emss_and_offsets_consistent(self):
        emss_value = analytic_q_min(EmssScheme(2, 3), 100, 0.2)
        generic_value = analytic_q_min(GenericOffsetScheme((3, 6)), 100, 0.2)
        assert emss_value == pytest.approx(generic_value)

    def test_ac(self):
        assert 0.0 < analytic_q_min(AugmentedChainScheme(3, 3), 101, 0.2) <= 1.0

    def test_tesla_uses_environment(self):
        generous = TeslaEnvironment(t_disclose=10.0, mu=0.1, sigma=0.05)
        tight = TeslaEnvironment(t_disclose=0.2, mu=0.19, sigma=0.1)
        scheme = TeslaScheme()
        assert analytic_q_min(scheme, 100, 0.1, generous) > \
            analytic_q_min(scheme, 100, 0.1, tight)

    def test_saida_dispatch(self):
        from repro.analysis import saida as saida_analysis
        from repro.schemes.saida import SaidaScheme

        scheme = SaidaScheme(0.5)
        assert analytic_q_min(scheme, 20, 0.3) == pytest.approx(
            saida_analysis.q_min(20, 10, 0.3))

    def test_unknown_scheme_rejected(self):
        class Mystery(Scheme):
            """Neither a dependence-graph nor a loss model of its own."""

            @property
            def name(self):
                return "mystery"

            def build_graph(self, n):
                return None

        with pytest.raises(AnalysisError, match="no analytic q_i model"):
            analytic_q_min(Mystery(), 10, 0.1)

    def test_any_graph_scheme_gets_the_exact_minimum(self):
        class Chain(Scheme):
            @property
            def name(self):
                return "chain"

            def build_graph(self, n):
                return RohatgiScheme().build_graph(n)

        assert analytic_q_min(Chain(), 10, 0.1) == pytest.approx(
            rohatgi_analysis.q_min(10, 0.1), abs=1e-12)

    def test_environment_xi(self):
        env = TeslaEnvironment(t_disclose=1.0, mu=1.0, sigma=0.5)
        assert env.xi == pytest.approx(0.5)


def _closed_form_q_min(name, scheme, n, p, env):
    """The per-scheme analytic ``q_min`` the paper's figures plot."""
    if name in ("wong-lam", "sign-each"):
        return 1.0
    if name in ("rohatgi", "rohatgi-online"):
        return rohatgi_analysis.q_min(n, p)
    if name == "emss":
        return emss_analysis.q_min(n, scheme.m, scheme.d, p)
    if name == "offsets":
        return emss_analysis.generic_q_min(n, scheme.offsets, p)
    if name == "ac":
        return ac_analysis.q_min(n, scheme.a, scheme.b, p)
    if name == "tesla":
        return tesla_analysis.q_min(n, p, env.t_disclose, env.mu, env.sigma)
    if name == "saida":
        return saida_analysis.q_min(n, scheme.threshold(n), p)
    return None  # random graphs: exact profile only, no closed form


class TestValuesUnchanged:
    """The scheme-owned models reproduce the closed forms bit for bit."""

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5])
    @pytest.mark.parametrize("n", [12, 100, 1000])
    @pytest.mark.parametrize("name", sorted(DEFAULT_SPECS))
    def test_q_min_bit_identical_to_closed_form(self, name, n, p):
        scheme = make_scheme(DEFAULT_SPECS[name])
        env = TeslaEnvironment()
        want = _closed_form_q_min(name, scheme, n, p, env)
        if want is None:
            pytest.skip(f"{name} has no closed-form q_min")
        assert analytic_q_min(scheme, n, p, env) == want

    @pytest.mark.parametrize("p", [0.0, 0.2, 1.0])
    def test_closed_form_profiles_bit_identical(self, p):
        n = 40
        env = ConformanceEnvironment()
        tesla = make_scheme(DEFAULT_SPECS["tesla"])
        saida = make_scheme(DEFAULT_SPECS["saida"])
        t_disclose = tesla.parameters.disclosure_delay
        expected = {
            "rohatgi": rohatgi_analysis.q_profile(n, p),
            "rohatgi-online": rohatgi_analysis.q_profile(n, p),
            "saida": saida_analysis.q_profile(n, saida.threshold(n), p),
            "tesla": [tesla_analysis.q_i(i, n, p, t_disclose, env.delay_mean,
                                         env.delay_std)
                      for i in range(1, n + 1)],
            "wong-lam": [1.0] * n,
            "sign-each": [1.0] * n,
        }
        for name, values in expected.items():
            profile = analytic_q_profile(make_scheme(DEFAULT_SPECS[name]),
                                         n, p, env)
            assert profile == dict(enumerate(values, start=1)), name


class TestSweeps:
    def test_loss_sweep_shape(self):
        schemes = paper_comparison_schemes()
        curves = sweep_loss(schemes, 200, [0.1, 0.3, 0.5])
        assert set(curves) == {s.name for s in schemes}
        assert all(len(v) == 3 for v in curves.values())

    def test_loss_sweep_monotone(self):
        curves = sweep_loss([EmssScheme(2, 1)], 200,
                            [0.05, 0.1, 0.2, 0.3, 0.4])
        values = curves["emss(2,1)"]
        assert values == sorted(values, reverse=True)

    def test_block_size_sweep(self):
        curves = sweep_block_size([RohatgiScheme()], [10, 50, 100], 0.1)
        values = curves["rohatgi"]
        assert values == sorted(values, reverse=True)

    def test_empty_scheme_list(self):
        with pytest.raises(AnalysisError):
            sweep_loss([], 100, [0.1])
        with pytest.raises(AnalysisError):
            sweep_block_size([], [100], 0.1)


class TestOverheadDelayTable:
    def test_rows_and_ordering(self):
        schemes = [RohatgiScheme(), WongLamScheme(), SignEachScheme()]
        rows = overhead_delay_table(schemes, 64)
        assert [r["scheme"] for r in rows] == [
            "rohatgi", "wong-lam", "sign-each"]

    def test_chained_cheaper_than_per_packet(self):
        rows = overhead_delay_table(
            [EmssScheme(2, 1), SignEachScheme()], 128,
            l_sign=128, l_hash=16)
        emss_row, sign_row = rows
        assert emss_row["bytes/pkt"] < sign_row["bytes/pkt"]

    def test_fig10_qualitative_facts(self):
        rows = overhead_delay_table(
            [RohatgiScheme(), EmssScheme(2, 1), WongLamScheme(),
             TeslaScheme()], 128)
        by_name = {r["scheme"]: r for r in rows}
        assert by_name["rohatgi"]["delay (slots)"] == 0
        assert by_name["emss(2,1)"]["delay (slots)"] == 127
        assert by_name["wong-lam"]["delay (slots)"] == 0
