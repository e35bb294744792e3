"""Unit tests for the online health plane (``repro.obs.health``).

Pins the detector semantics one by one: the integer CUSUM fires at the
exact deficit crossing and re-arms, the drift detector is edge-
triggered on exact cross-multiplied integers, each soundness sentinel
promotes the right counter movement at the right severity, and the
alert file is canonical (sorted at flush, validated strictly).
"""

import io
import json
from fractions import Fraction

import pytest

from repro.exceptions import AnalysisError
from repro.obs.artifacts import validate_artifact
from repro.obs.health import (
    ALERT_DETECTORS,
    ALERT_SEVERITIES,
    DEFAULT_SLO_DEFICIT,
    AlertEvent,
    HealthMonitor,
    max_severity,
    parse_slo_spec,
)


def _sentinels(monitor, block, **overrides):
    """Call observe_sentinels with all-zero defaults."""
    kwargs = dict(forged=0, undecodable=0, cap_evictions=0,
                  root_verifies=0, batch_signs=0, expected_delta=0)
    kwargs.update(overrides)
    return monitor.observe_sentinels(block, **kwargs)


class TestAlertEvent:
    def test_rejects_unknown_severity(self):
        with pytest.raises(AnalysisError):
            AlertEvent(block=0, detector="slo", kind="x", scope="_pool",
                       severity="fatal")

    def test_rejects_unknown_detector(self):
        with pytest.raises(AnalysisError):
            AlertEvent(block=0, detector="vibes", kind="x", scope="_pool",
                       severity="warning")

    def test_round_trips_to_dict(self):
        alert = AlertEvent(block=3, detector="drift", kind="off-lattice",
                           scope="_pool", severity="warning", t=0.5,
                           detail={"a": 1})
        record = alert.to_dict()
        assert record["block"] == 3
        assert record["detail"] == {"a": 1}
        assert json.dumps(record)  # JSON-ready

    def test_max_severity_orders_by_rank(self):
        mk = lambda sev: AlertEvent(block=0, detector="slo", kind="k",
                                    scope="s", severity=sev)
        assert max_severity([]) is None
        assert max_severity([mk("info"), mk("critical"),
                             mk("warning")]) == "critical"
        assert list(ALERT_SEVERITIES) == ["info", "warning", "critical"]
        assert set(ALERT_DETECTORS) == {"slo", "drift", "sentinel"}


class TestSloSpec:
    def test_parses_decimal_target_exactly(self):
        spec = parse_slo_spec("q:0.9")
        assert (spec.q_num, spec.q_den) == (9, 10)
        assert spec.deficit == DEFAULT_SLO_DEFICIT

    def test_parses_explicit_deficit(self):
        spec = parse_slo_spec("q:3/4:12")
        assert (spec.q_num, spec.q_den, spec.deficit) == (3, 4, 12)

    @pytest.mark.parametrize("bad", ["0.9", "p:0.9", "q:0", "q:1.5",
                                     "q:0.9:0", "q:0.9:x", "q:0.9:1:2"])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(AnalysisError):
            parse_slo_spec(bad)


class TestSloCusum:
    def test_no_alert_while_on_target(self):
        monitor = HealthMonitor(q_target="3/4", deficit=4)
        for block in range(10):
            assert monitor.observe_slo(block, "r:a", 8, 8) is None
        assert monitor.slo["r:a"].cusum == 0

    def test_fires_at_exact_deficit_crossing(self):
        # Target 3/4, deficit 4: all-lost blocks of 2 accumulate a
        # shortfall of 1.5 packets per block -> crossing at block 3
        # (cumulative 4.5 >= 4), not before.
        monitor = HealthMonitor(q_target="3/4", deficit=4)
        fired = [monitor.observe_slo(b, "r:a", 2, 0) for b in range(4)]
        assert [a is not None for a in fired] == [False, False, True, False]
        alert = fired[2]
        assert alert.kind == "slo-breach"
        assert alert.severity == "warning"
        assert alert.detail["deficit_packets"] == 4  # floor(4.5)
        assert alert.detail["target"] == "3/4"

    def test_rearms_after_breach(self):
        monitor = HealthMonitor(q_target="1/1", deficit=2)
        first = [monitor.observe_slo(b, "r:a", 1, 0) for b in range(2)]
        assert first[0] is None and first[1] is not None
        assert monitor.slo["r:a"].cusum == 0  # re-armed
        second = [monitor.observe_slo(b, "r:a", 1, 0) for b in range(2, 4)]
        assert second[0] is None and second[1] is not None
        assert monitor.slo["r:a"].breaches == 2

    def test_recovery_drains_the_statistic(self):
        monitor = HealthMonitor(q_target="1/2", deficit=10)
        monitor.observe_slo(0, "r:a", 4, 0)   # shortfall 2
        assert monitor.slo["r:a"].cusum > 0
        monitor.observe_slo(1, "r:a", 8, 8)   # surplus 4 > shortfall
        assert monitor.slo["r:a"].cusum == 0  # floored at zero

    def test_scopes_are_independent(self):
        monitor = HealthMonitor(q_target="1/1", deficit=1)
        assert monitor.observe_slo(0, "r:a", 1, 0) is not None
        assert monitor.observe_slo(0, "r:b", 1, 1) is None
        assert monitor.slo["r:b"].breaches == 0

    def test_peak_tracks_high_water_mark(self):
        monitor = HealthMonitor(q_target="1/1", deficit=100)
        monitor.observe_slo(0, "r:a", 5, 0)
        monitor.observe_slo(1, "r:a", 5, 5)
        assert monitor.slo["r:a"].peak == 5
        assert monitor.slo["r:a"].cusum == 5  # 1/1 target: no drain

    def test_rejects_inconsistent_counts(self):
        monitor = HealthMonitor()
        with pytest.raises(AnalysisError):
            monitor.observe_slo(0, "r:a", 2, 3)
        with pytest.raises(AnalysisError):
            monitor.observe_slo(0, "r:a", -1, 0)


class TestDrift:
    def test_disabled_without_envelope(self):
        monitor = HealthMonitor()
        assert monitor.observe_envelope(0, 10, 10) is None
        assert monitor.drift_blocks == 0

    def test_edge_triggered_with_rearm(self):
        monitor = HealthMonitor(envelope_top="1/2")
        assert monitor.observe_envelope(0, 1, 10) is None     # on-lattice
        first = monitor.observe_envelope(1, 6, 10)            # off: fires
        assert first is not None and first.kind == "off-lattice"
        assert monitor.observe_envelope(2, 7, 10) is None     # still off
        assert monitor.observe_envelope(3, 2, 10) is None     # back on
        second = monitor.observe_envelope(4, 9, 10)           # off again
        assert second is not None
        assert monitor.off_lattice_entries == 2
        assert monitor.off_lattice_blocks == 3

    def test_boundary_is_inclusive_on_lattice(self):
        # lost/fill == top exactly is *on* the lattice (strict >).
        monitor = HealthMonitor(envelope_top="1/2")
        assert monitor.observe_envelope(0, 5, 10) is None
        assert monitor.observe_envelope(1, 501, 1000) is not None

    def test_empty_window_is_skipped(self):
        monitor = HealthMonitor(envelope_top="1/2")
        assert monitor.observe_envelope(0, 0, 0) is None
        assert monitor.drift_blocks == 0

    def test_envelope_reconfiguration_must_agree(self):
        monitor = HealthMonitor(envelope_top="1/2")
        monitor.configure_envelope(Fraction(1, 2))  # same: no-op
        with pytest.raises(AnalysisError):
            monitor.configure_envelope("2/3")

    def test_envelope_bounds_validated(self):
        with pytest.raises(AnalysisError):
            HealthMonitor(envelope_top="0")
        with pytest.raises(AnalysisError):
            HealthMonitor(envelope_top="1")


class TestSentinels:
    def test_forged_is_critical(self):
        monitor = HealthMonitor()
        fired = _sentinels(monitor, 0, forged=1, expected_delta=8)
        assert [a.kind for a in fired] == ["forged-accepted"]
        assert fired[0].severity == "critical"
        assert monitor.worst_severity() == "critical"

    def test_deltas_not_absolutes_fire(self):
        monitor = HealthMonitor()
        assert _sentinels(monitor, 0, forged=2, expected_delta=8)
        # No movement since last call: no new alert.
        assert _sentinels(monitor, 1, forged=2, expected_delta=8) == []
        assert monitor.sentinel_totals["forged"] == 2

    def test_counters_must_be_cumulative(self):
        monitor = HealthMonitor()
        _sentinels(monitor, 0, forged=2, expected_delta=8)
        with pytest.raises(AnalysisError):
            _sentinels(monitor, 1, forged=1, expected_delta=8)

    def test_decode_spike_threshold(self):
        monitor = HealthMonitor(decode_spike="1/4")
        # 1 of 8 undecodable: below 1/4, quiet.
        assert _sentinels(monitor, 0, undecodable=1, expected_delta=8) == []
        # +2 of 8 == 1/4 exactly: fires (>= threshold).
        fired = _sentinels(monitor, 1, undecodable=3, expected_delta=8)
        assert [a.kind for a in fired] == ["decode-spike"]
        assert fired[0].detail == {"undecodable": 2, "expected": 8,
                                   "threshold": "1/4"}

    def test_buffer_eviction_and_root_cache_miss(self):
        monitor = HealthMonitor()
        fired = _sentinels(monitor, 0, cap_evictions=3, root_verifies=5,
                           batch_signs=2, expected_delta=8)
        assert sorted(a.kind for a in fired) == ["buffer-eviction",
                                                 "root-cache-miss"]
        assert all(a.severity == "warning" for a in fired)

    def test_root_verifies_within_signs_is_quiet(self):
        monitor = HealthMonitor()
        assert _sentinels(monitor, 0, root_verifies=2, batch_signs=2,
                          expected_delta=8) == []


class TestReadouts:
    def test_counts_and_gauges_track_alerts(self):
        monitor = HealthMonitor(q_target="1/1", deficit=1)
        monitor.observe_slo(0, "r:a", 4, 0)
        _sentinels(monitor, 0, forged=1, expected_delta=4)
        counts = monitor.counts()
        assert counts == {"info": 0, "warning": 1, "critical": 1}
        assert monitor.counts_by_kind() == {"forged-accepted": 1,
                                            "slo-breach": 1}
        gauges = monitor.gauges()
        assert gauges["alerts"] == 2
        assert gauges["alerts_critical"] == 1
        assert gauges["slo_breaches"] == 1

    def test_describe_is_manifest_ready_and_sorted(self):
        monitor = HealthMonitor(q_target="3/4", envelope_top="1/2")
        monitor.observe_slo(5, "r:b", 4, 0)
        monitor.observe_slo(1, "r:a", 4, 0)
        record = monitor.describe()
        json.dumps(record)  # JSON-ready throughout
        assert record["config"]["q_target"] == "3/4"
        assert record["config"]["envelope_top"] == "1/2"
        blocks = [a["block"] for a in record["alerts"]]
        assert blocks == sorted(blocks)
        assert list(record["slo"]) == ["r:a", "r:b"]


class TestAlertSink:
    def test_flush_sorts_whatever_order_appended(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        monitor = HealthMonitor(q_target="1/1", deficit=1, sink=str(path))
        for block in (5, 1, 3):
            monitor.observe_slo(block, "r:a", 1, 0, t=block * 0.1)
        monitor.close()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [record["block"] for record in records] == [1, 3, 5]
        assert records == [alert.to_dict() for alert in
                           sorted(monitor.alerts, key=AlertEvent.sort_key)]
        assert validate_artifact(str(path), "alerts") == 3

    def test_memory_only_sink_counts_writes(self):
        monitor = HealthMonitor(q_target="1/1", deficit=1)
        monitor.observe_slo(0, "r:a", 1, 0)
        assert monitor.flush() == 0  # nothing to write without a sink
        assert len(monitor.alerts) == 1  # flushing never forgets alerts

    def test_monitor_flush_forwards_to_sink(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        monitor = HealthMonitor(q_target="1/1", deficit=1, sink=str(path))
        monitor.observe_slo(0, "r:a", 2, 0)
        monitor.close()
        assert validate_artifact(str(path), "alerts") == 1


class TestValidateAlertsFile:
    def _write(self, path, records):
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                for r in records))

    def _record(self, block=0, **overrides):
        record = {"block": block, "detector": "slo", "kind": "slo-breach",
                  "scope": "r:a", "severity": "warning", "t": 0.0,
                  "detail": {}}
        record.update(overrides)
        return record

    def test_rejects_out_of_order(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        self._write(path, [self._record(block=2), self._record(block=1)])
        with pytest.raises(AnalysisError, match="canonical order"):
            validate_artifact(str(path), "alerts")

    def test_rejects_missing_field(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        record = self._record()
        del record["scope"]
        self._write(path, [record])
        with pytest.raises(AnalysisError, match="scope"):
            validate_artifact(str(path), "alerts")

    def test_rejects_unknown_detector_and_severity(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        self._write(path, [self._record(detector="vibes")])
        with pytest.raises(AnalysisError, match="detector"):
            validate_artifact(str(path), "alerts")
        self._write(path, [self._record(severity="fatal")])
        with pytest.raises(AnalysisError, match="severity"):
            validate_artifact(str(path), "alerts")

    def test_rejects_non_integer_block(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        self._write(path, [self._record(block=1.5)])
        with pytest.raises(AnalysisError, match="block"):
            validate_artifact(str(path), "alerts")


class TestMerge:
    def test_config_mismatch_rejected(self):
        with pytest.raises(AnalysisError, match="configurations"):
            HealthMonitor(q_target="3/4").merge(HealthMonitor(q_target="1/2"))
        with pytest.raises(AnalysisError):
            HealthMonitor().merge(object())

    def test_disjoint_scopes_union_exactly(self):
        left = HealthMonitor(q_target="1/1", deficit=2)
        right = HealthMonitor(q_target="1/1", deficit=2)
        left.observe_slo(0, "r:a", 1, 0)
        right.observe_slo(1, "r:b", 1, 0)
        right.observe_slo(2, "r:b", 1, 0)  # breach
        merged = left.merge(right)
        assert merged.slo["r:a"].to_dict() == left.slo["r:a"].to_dict()
        assert merged.slo["r:b"].to_dict() == right.slo["r:b"].to_dict()
        assert len(merged.alerts) == 1

    def test_identity_is_fresh_same_config_monitor(self):
        monitor = HealthMonitor(q_target="3/4", deficit=4,
                                envelope_top="1/2")
        monitor.observe_slo(0, "r:a", 8, 0)
        monitor.observe_envelope(0, 6, 10)
        _sentinels(monitor, 0, forged=1, expected_delta=8)
        identity = HealthMonitor(q_target="3/4", deficit=4,
                                 envelope_top="1/2")
        merged = monitor.merge(identity)
        assert merged.describe() == monitor.describe()

    def test_merge_ignores_sink_and_keeps_registry_out(self):
        left = HealthMonitor(sink=io.StringIO())
        right = HealthMonitor()
        assert left.merge(right).sink is None
