"""Acceptance: the control plane flying on a precomputed design table.

The contract under test is the tentpole's: with a warm table covering
the controller grid, an adapted session (a) makes **zero** inline
optimizer calls — every grid-point crossing is answered by the
service, asserted via the new registry counters — and (b) produces
transcripts byte-identical to the pre-service inline path, because
table cells store exactly what the inline optimizer would have
returned at the same grid points.
"""

import pytest

from repro.design.grid import DEFAULT_P_GRID
from repro.design.service import DesignService
from repro.design.table import DesignTable, TableSpec
from repro.exceptions import DesignError, SimulationError
from repro.obs.registry import MetricsRegistry, use_registry
from repro.serve.adaptive import CONTROLLER_FAMILIES, AdaptiveController
from repro.serve.service import ServeConfig, run_live_session

RAMP_BLOCK = 20
STAIRCASE = dict(
    receivers=8, blocks=40, block_size=12,
    loss_schedule=((0, 0.05), (RAMP_BLOCK, 0.3)),
    attack="pollution", seed=2003,
)


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    table = DesignTable.build(TableSpec(families=("emss", "ac")), workers=1)
    path = str(tmp_path_factory.mktemp("design") / "table.json")
    table.save(path)
    return path


@pytest.fixture(scope="module")
def lattice_service():
    """The controller's whole lattice: both families, n in {12, 128}."""
    spec = TableSpec(block_sizes=(12, 128), families=CONTROLLER_FAMILIES)
    return DesignService(DesignTable.build(spec, workers=1))


@pytest.fixture(scope="module")
def inline_session():
    return run_live_session(ServeConfig(**STAIRCASE))


@pytest.fixture(scope="module")
def served(table_path):
    with use_registry(MetricsRegistry()) as registry:
        session = run_live_session(
            ServeConfig(design_table=table_path, **STAIRCASE))
    return session, registry


class TestWarmTableParity:
    def test_transcripts_byte_identical_to_inline_path(self, served,
                                                       inline_session):
        session, _ = served
        assert session.transcripts == inline_session.transcripts

    def test_adaptation_trace_identical_to_inline_path(self, served,
                                                       inline_session):
        session, _ = served
        assert ([e.to_dict() for e in session.events]
                == [e.to_dict() for e in inline_session.events])

    def test_zero_inline_optimizer_calls(self, served):
        _, registry = served
        assert registry.counters.get("design.inline.calls", 0) == 0
        assert registry.counters.get("design.service.fallbacks", 0) == 0
        assert registry.counters["design.service.hits"] > 0
        assert registry.counters.get("design.service.misses", 0) == 0

    def test_manifest_records_table_traffic(self, served):
        session, registry = served
        detail = session.manifest.parameters["design_table_detail"]
        assert detail["lookup_hits"] == registry.counters[
            "design.service.hits"]
        assert detail["lookup_misses"] == 0
        assert detail["content_hash"]

    def test_lookups_lift_into_manifest_trial_counts(self, table_path):
        with use_registry(MetricsRegistry()):
            session = run_live_session(ServeConfig(
                receivers=2, blocks=4, design_table=table_path, seed=11))
        counts = session.manifest.trial_counts
        assert counts["design.service.lookups"] > 0


class TestAcFamilySession:
    def test_ac_session_adapts_via_table(self, table_path):
        # Ramp to p = 0.4: the AC optimum at n=12 moves from (2,1) to
        # (2,2), so a served AC session must demonstrably switch.
        config = ServeConfig(
            receivers=8, blocks=40, block_size=12,
            loss_schedule=((0, 0.05), (20, 0.4)),
            seed=2003, design_table=table_path, scheme_family="ac")
        with use_registry(MetricsRegistry()) as registry:
            session = run_live_session(config)
        assert len(session.schemes_used) >= 2
        assert all(spec.startswith("ac(")
                   for spec in session.schemes_used)
        assert registry.counters.get("design.inline.calls", 0) == 0
        assert session.forged_accepted == 0

    def test_unknown_family_rejected_by_config(self):
        with pytest.raises(SimulationError, match="family"):
            ServeConfig(scheme_family="tesla")


class TestControllerServiceWiring:
    def make_service(self, **spec_overrides):
        spec = TableSpec(families=("emss", "ac"), **spec_overrides)
        return DesignService(DesignTable.build(spec, workers=1))

    def test_unknown_family_rejected(self):
        with pytest.raises(SimulationError, match="family"):
            AdaptiveController(block_size=12, family="offset")

    def test_service_hit_counts_and_no_inline(self):
        controller = AdaptiveController(block_size=12,
                                        design_service=self.make_service())
        assert controller.design().table_hits == 1  # the initial design
        assert controller.design().inline_calls == 0
        gauges = controller.gauges()
        assert gauges["table_hits"] == 1
        assert gauges["inline_fallbacks"] == 0

    def test_uncovered_point_falls_back_inline_and_counts(self):
        # A table over a foreign block-size axis cannot cover n=12:
        # every selection is a counted miss answered inline.
        service = self.make_service(block_sizes=(4,))
        with use_registry(MetricsRegistry()) as registry:
            controller = AdaptiveController(block_size=12,
                                            design_service=service)
        assert controller.design().table_misses == 1
        assert controller.design().inline_calls == 1
        assert registry.counters["design.service.fallbacks"] == 1
        assert registry.counters["design.inline.calls"] == 1
        assert controller.gauges()["table_misses"] == 1

    @pytest.mark.parametrize("n", (12, 128))
    @pytest.mark.parametrize("p", DEFAULT_P_GRID)
    @pytest.mark.parametrize("family", CONTROLLER_FAMILIES)
    def test_served_choice_equals_inline_choice(self, family, p, n,
                                                lattice_service):
        # Every point of the controller's lattice is a covered table
        # cell holding exactly what the inline search selects there.
        def build(service):
            return AdaptiveController(block_size=n, initial_p=p,
                                      family=family, design_service=service)

        try:
            inline = build(None).design()
        except DesignError as refused:
            with pytest.raises(DesignError) as served_refusal:
                build(lattice_service)
            assert str(served_refusal.value) == str(refused)
            assert lattice_service.lookup(p, n, 0.75, family) is None
            return
        served = build(lattice_service).design()
        assert served.table_hits == 1 and served.inline_calls == 0
        assert served.point == inline.point
        assert served.point.to_dict() == inline.point.to_dict()

    def test_ac_controller_inline_fallback(self):
        controller = AdaptiveController(block_size=12, family="ac")
        assert controller.design().point.family == "ac"
        assert controller.design().inline_calls == 1

    def test_missing_table_file_fails_loudly(self):
        with pytest.raises(DesignError, match="cannot read"):
            run_live_session(ServeConfig(
                receivers=2, blocks=2,
                design_table="/nonexistent/table.json"))

    def test_subtree_controllers_share_the_service(self, table_path):
        config = ServeConfig(
            receivers=8, blocks=10, topology="spine:4",
            subtree_adaptive=True, design_table=table_path, seed=5)
        with use_registry(MetricsRegistry()) as registry:
            session = run_live_session(config)
        assert registry.counters.get("design.inline.calls", 0) == 0
        assert registry.counters["design.service.hits"] > 0
        assert session.forged_accepted == 0
