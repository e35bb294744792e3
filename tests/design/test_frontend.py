"""Unit tests for the unified design-program frontend."""

import pytest

from repro.design.frontend import DESIGN_FAMILIES, DesignPoint, design_point
from repro.design.optimizer import optimize_ac, optimize_emss
from repro.exceptions import DesignError
from repro.schemes.registry import make_scheme


class TestDispatch:
    def test_emss_matches_direct_optimizer(self):
        point = design_point("emss", 12, 0.2, 0.75, max_delay_slots=8)
        assert point == optimize_emss(12, 0.2, 0.75, max_delay_slots=8)
        assert point.family == "emss"
        assert point.scheme_spec == "emss(%d,%d)" % point.parameters
        assert point.cost == point.parameters[0]
        assert point.delay_slots == point.parameters[0] * point.parameters[1]
        assert point.extra == {}

    def test_ac_matches_direct_optimizer(self):
        point = design_point("ac", 12, 0.2, 0.75, max_delay_slots=8)
        assert point == optimize_ac(12, 0.2, 0.75, max_delay_slots=8)
        assert point.family == "ac"
        assert point.scheme_spec == "ac(%d,%d)" % point.parameters
        a, b = point.parameters
        assert (point.cost, point.delay_slots) == (2.0, a * (b + 1))

    def test_offset_point_carries_policy(self):
        point = design_point("offset", 40, 0.2, 0.8, max_delay_slots=8)
        assert point.family == "offset"
        assert point.q_min >= 0.8
        assert point.delay_slots == max(point.extra["offsets"])
        assert point.scheme_spec.startswith("offsets(")

    def test_probabilistic_point_is_seeded(self):
        first = design_point("probabilistic", 30, 0.1, 0.7,
                             max_delay_slots=8, seed=5, mc_trials=300)
        again = design_point("probabilistic", 30, 0.1, 0.7,
                             max_delay_slots=8, seed=5, mc_trials=300)
        assert first == again
        assert first.parameters == (first.extra["edge_probability"],)

    def test_heuristic_point_has_edges_not_spec(self):
        point = design_point("heuristic", 24, 0.1, 0.6, seed=3,
                             mc_trials=300)
        assert point.scheme_spec is None
        assert point.extra["edges"]
        assert point.q_min >= 0.6

    def test_unknown_family_raises(self):
        with pytest.raises(DesignError, match="unknown design family"):
            design_point("tesla", 12, 0.2, 0.75)

    def test_infeasible_point_raises_design_error(self):
        # q ~ 1 at heavy loss within one delay slot: nothing qualifies.
        with pytest.raises(DesignError):
            design_point("emss", 12, 0.5, 0.9999, max_delay_slots=1)


class TestDesignPoint:
    def test_specs_instantiate_via_registry(self):
        for family in ("emss", "ac", "offset"):
            point = design_point(family, 12, 0.2, 0.75, max_delay_slots=8)
            scheme = make_scheme(point.scheme_spec)
            assert scheme.name

    def test_round_trips_through_dict(self):
        for family in DESIGN_FAMILIES:
            kwargs = {"seed": 3, "mc_trials": 300}
            point = design_point(family, 16, 0.1, 0.6, max_delay_slots=8,
                                 **kwargs)
            assert DesignPoint.from_dict(point.to_dict()) == point

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(DesignError):
            DesignPoint.from_dict({"family": "emss"})
