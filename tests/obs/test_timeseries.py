"""Unit tests for the fixed-grid timeseries sampler."""

import io
import json

import pytest

from repro.exceptions import AnalysisError
from repro.obs.timeseries import (
    CONTROLLER_ROW,
    TimeseriesSampler,
)
from repro.obs.artifacts import validate_artifact


class TestTicks:
    def test_not_due_before_first_boundary(self):
        sampler = TimeseriesSampler(interval_s=0.1)
        assert not sampler.due(0.05)
        assert sampler.due(0.1)

    def test_record_stamps_quantized_tick_time(self):
        sampler = TimeseriesSampler(interval_s=0.1)
        assert sampler.record(0.137, [{"r": "r00", "gauge": 1}])
        (row,) = sampler.samples
        assert row["t"] == pytest.approx(0.1)
        assert row["gauge"] == 1

    def test_skips_when_not_due(self):
        sampler = TimeseriesSampler(interval_s=0.1)
        assert not sampler.record(0.05, [{"r": "r00"}])
        assert sampler.samples == []

    def test_block_spanning_multiple_intervals_uses_last_tick(self):
        sampler = TimeseriesSampler(interval_s=0.1)
        assert sampler.record(0.35, [{"r": "r00"}])
        assert sampler.samples[-1]["t"] == pytest.approx(0.3)
        # The next tick is the one after the crossed boundary.
        assert not sampler.due(0.39)
        assert sampler.due(0.4)

    def test_rows_require_receiver_id(self):
        sampler = TimeseriesSampler(interval_s=0.1)
        with pytest.raises(AnalysisError, match="'r'"):
            sampler.record(0.2, [{"gauge": 1}])

    def test_invalid_interval_rejected(self):
        with pytest.raises(AnalysisError):
            TimeseriesSampler(interval_s=0.0)


class TestOutput:
    def test_flush_appends_only_new_rows(self):
        stream = io.StringIO()
        sampler = TimeseriesSampler(interval_s=0.1, sink=stream)
        sampler.record(0.1, [{"r": "r00", "x": 1}])
        assert sampler.flush() == 1
        sampler.record(0.2, [{"r": "r00", "x": 2}])
        assert sampler.flush() == 1
        rows = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [row["x"] for row in rows] == [1, 2]

    def test_context_manager_flushes_on_error(self):
        stream = io.StringIO()
        with pytest.raises(RuntimeError):
            with TimeseriesSampler(interval_s=0.1, sink=stream) as sampler:
                sampler.record(0.1, [{"r": "r00"}])
                raise RuntimeError("boom")
        assert len(stream.getvalue().splitlines()) == 1

    def test_last_gauges_keeps_latest_row_per_receiver(self):
        sampler = TimeseriesSampler(interval_s=0.1)
        sampler.record(0.1, [{"r": "r00", "x": 1},
                             {"r": CONTROLLER_ROW, "m": 2}])
        sampler.record(0.2, [{"r": "r00", "x": 5}])
        latest = sampler.last_gauges()
        assert latest["r00"]["x"] == 5
        assert latest[CONTROLLER_ROW]["m"] == 2


class TestValidation:
    def test_round_trip_validates(self, tmp_path):
        path = str(tmp_path / "ts.jsonl")
        with TimeseriesSampler(interval_s=0.1, sink=path) as sampler:
            sampler.record(0.1, [{"r": "r00", "x": 1},
                                 {"r": CONTROLLER_ROW, "scheme": "emss(1,2)"}])
            sampler.record(0.2, [{"r": "r00", "x": 2}])
        assert validate_artifact(path, "timeseries") == 3

    def test_rejects_backwards_time(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        path.write_text(json.dumps({"t": 0.2, "r": "r00"}) + "\n"
                        + json.dumps({"t": 0.1, "r": "r00"}) + "\n")
        with pytest.raises(AnalysisError, match="backwards"):
            validate_artifact(str(path), "timeseries")

    def test_rejects_non_numeric_gauge(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        path.write_text(json.dumps({"t": 0.1, "r": "r00",
                                    "bad": [1, 2]}) + "\n")
        with pytest.raises(AnalysisError, match="gauge"):
            validate_artifact(str(path), "timeseries")
