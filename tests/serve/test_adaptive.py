"""Adaptive controller units: quantization, switching, infeasibility."""

import pytest

from repro.design.grid import DEFAULT_P_GRID, validate_grid
from repro.design.service import DesignService
from repro.design.table import DesignTable, TableSpec
from repro.exceptions import DesignError, SimulationError
from repro.obs.registry import MetricsRegistry, use_registry
from repro.serve.adaptive import AdaptiveController
from repro.serve.receiver import LossReport


def _report(block_id, lost, total, receiver_id="r00"):
    return LossReport(receiver_id=receiver_id, block_id=block_id,
                      expected=total, received=total - lost)


class TestQuantization:
    def test_rounds_up_to_grid(self):
        controller = AdaptiveController(block_size=12)
        assert controller.quantize(0.0) == 0.02
        assert controller.quantize(0.06) == 0.1
        assert controller.quantize(0.3) == 0.3

    def test_clamps_above_grid(self):
        controller = AdaptiveController(block_size=12)
        assert controller.quantize(0.9) == DEFAULT_P_GRID[-1]

    def test_grid_must_be_sorted(self):
        # The one grid the controller quantizes onto is a valid grid,
        # and every estimate lands on one of its points.
        assert validate_grid(DEFAULT_P_GRID, "p_grid") == DEFAULT_P_GRID
        with pytest.raises(DesignError):
            validate_grid(tuple(reversed(DEFAULT_P_GRID)), "p_grid")
        controller = AdaptiveController(block_size=12)
        for p_hat in (0.0, 0.03, 0.21, 0.49, 0.7):
            assert controller.quantize(p_hat) in DEFAULT_P_GRID


class TestInitialDesign:
    def test_initial_choice_matches_optimizer(self):
        controller = AdaptiveController(block_size=12, initial_p=0.05)
        assert controller.design().point.family == "emss"
        assert controller.design().point.q_min >= 0.75
        assert controller.design().scheme.name == "emss{0}".format(
            "(%d,%d)" % controller.design().point.parameters)

    def test_p_design_starts_quantized(self):
        controller = AdaptiveController(block_size=12, initial_p=0.04)
        assert controller.design().p_design == 0.05


class TestSwitching:
    def test_rising_loss_switches_parameters(self):
        controller = AdaptiveController(block_size=12, initial_p=0.02)
        start = controller.design().point.parameters
        # Saturate the window with heavy loss; the design point must
        # move up the grid and the parameters must change.
        event = None
        for block_id in range(4):
            [event] = controller.observe(block_id,
                                         [_report(block_id, 30, 100)])
        assert event.p_design >= 0.3
        assert controller.design().point.parameters != start
        assert any(e.switched for e in controller.events)
        assert controller.design().point.q_min >= 0.75

    def test_stable_loss_never_switches(self):
        controller = AdaptiveController(block_size=12, initial_p=0.05)
        for block_id in range(6):
            controller.observe(block_id, [_report(block_id, 5, 100)])
        assert not any(e.switched for e in controller.events)
        assert all(e.p_design == 0.05 for e in controller.events)

    def test_reports_folded_in_sorted_receiver_order(self):
        a = AdaptiveController(block_size=12, initial_p=0.05)
        b = AdaptiveController(block_size=12, initial_p=0.05)
        reports = [_report(0, 3, 50, "r01"), _report(0, 20, 50, "r00")]
        a.observe(0, reports)
        b.observe(0, list(reversed(reports)))
        assert a.events[-1].p_hat == b.events[-1].p_hat

    def test_event_serializes_for_manifest(self):
        controller = AdaptiveController(block_size=12)
        [event] = controller.observe(0, [_report(0, 0, 100)])
        payload = event.to_dict()
        assert payload["block_id"] == 0
        assert payload["parameters"] == list(event.parameters)
        assert isinstance(payload["switched"], bool)


class TestInfeasibility:
    def test_infeasible_point_keeps_current_choice(self):
        # Under the delay budget of 8 a 0.99 target is feasible at
        # p=0.02 but not at the top of the grid (p=0.5); the controller
        # must keep flying on what it has instead of stalling the
        # stream.
        controller = AdaptiveController(block_size=12, initial_p=0.02,
                                        q_min_target=0.99)
        before = controller.design().point
        event = None
        for block_id in range(4):
            [event] = controller.observe(block_id,
                                         [_report(block_id, 70, 100)])
        assert not event.feasible
        assert controller.design().point == before


class TestGroups:
    GROUPS = {"r00": "s00", "r01": "s00", "r02": "s01", "r03": "s01"}

    def test_pool_wide_controller_is_the_one_none_group(self):
        controller = AdaptiveController(block_size=12)
        events = controller.observe(0, [_report(0, 5, 100, "r00"),
                                        _report(0, 5, 100, "r07")])
        assert [event.group for event in events] == [None]
        assert "group" not in events[0].to_dict()
        assert set(controller.schemes()) == {None}
        assert "groups" not in controller.gauges()

    def test_each_group_designs_for_its_own_loss(self):
        controller = AdaptiveController(block_size=12, initial_p=0.02,
                                        group_of=self.GROUPS)
        for block_id in range(4):
            controller.observe(block_id, [
                _report(block_id, 40, 100, "r00"),
                _report(block_id, 40, 100, "r01"),
                _report(block_id, 0, 100, "r02"),
                _report(block_id, 0, 100, "r03"),
            ])
        last = {event.group: event for event in controller.events[-2:]}
        assert last["s00"].p_design > last["s01"].p_design
        schemes = controller.schemes()
        assert list(schemes) == ["s00", "s01"]
        assert schemes["s00"].name != schemes["s01"].name
        gauges = controller.gauges()
        assert gauges["groups"] == 2
        assert gauges["s00.p_design"] > gauges["s01.p_design"]
        assert controller.design("s00").scheme is schemes["s00"]
        with pytest.raises(SimulationError):
            controller.design()  # no pool-wide group here

    def test_only_groups_that_reported_decide(self):
        controller = AdaptiveController(block_size=12, group_of=self.GROUPS)
        events = controller.observe(0, [_report(0, 5, 100, "r02")])
        assert [event.group for event in events] == ["s01"]

    def test_report_outside_every_group_is_refused(self):
        controller = AdaptiveController(block_size=12, group_of=self.GROUPS)
        with pytest.raises(SimulationError):
            controller.observe(0, [_report(0, 5, 100, "r09")])

    def test_retire_folds_out_of_the_leavers_group_only(self):
        controller = AdaptiveController(block_size=12, group_of=self.GROUPS,
                                        membership_aware=True)
        controller.observe(0, [_report(0, 50, 100, "r00"),
                               _report(0, 0, 100, "r01"),
                               _report(0, 10, 100, "r02")])
        assert controller.envelope_counts() == (60, 300)
        assert controller.retire_receiver("r00") is True
        assert controller.envelope_counts() == (10, 200)
        assert controller.retire_receiver("r09") is False


class TestRequestRefresh:
    GROUPS = {"r00": "s00", "r01": "s01"}

    @staticmethod
    def service(**spec_overrides):
        spec = TableSpec(families=("emss",), **spec_overrides)
        return DesignService(DesignTable.build(spec, workers=1))

    def test_one_request_counted_per_group_per_call(self):
        controller = AdaptiveController(block_size=12, group_of=self.GROUPS)
        with use_registry(MetricsRegistry()) as registry:
            assert controller.request_refresh() is True
            assert controller.request_refresh() is True
        assert registry.counters["design.refresh.requests"] == 4
        for label in ("s00", "s01"):
            assert controller.design(label).refresh_requests == 2
            assert controller.gauges()[f"{label}.refresh_requests"] == 2

    def test_service_backed_refresh_relooks_up_without_inline(self):
        controller = AdaptiveController(block_size=12, group_of=self.GROUPS,
                                        design_service=self.service())
        before = {label: controller.design(label).point
                  for label in ("s00", "s01")}
        with use_registry(MetricsRegistry()) as registry:
            assert controller.request_refresh() is True
        assert registry.counters.get("design.inline.calls", 0) == 0
        assert registry.counters["design.service.hits"] == 2
        for label in ("s00", "s01"):
            design = controller.design(label)
            assert design.table_hits == 2  # the initial design + refresh
            assert design.inline_calls == 0
            assert design.point == before[label]

    def test_infeasible_cell_returns_false_and_keeps_scheme(self):
        controller = AdaptiveController(block_size=12, initial_p=0.05,
                                        design_service=self.service())
        design = controller.design()
        scheme, point = design.scheme, design.point
        # A table whose delay axis rounds the budget of 8 down to 1:
        # no EMSS design within one slot meets 0.75 at p=0.05, and the
        # covered cell says so authoritatively.
        controller.design_service = self.service(p_grid=(0.05,),
                                                 delay_budgets=(1,))
        with use_registry(MetricsRegistry()) as registry:
            assert controller.request_refresh() is False
        assert registry.counters.get("design.inline.calls", 0) == 0
        assert design.table_hits == 2
        assert design.refresh_requests == 1
        assert design.scheme is scheme
        assert design.point == point
        assert controller.schemes()[None] is scheme
