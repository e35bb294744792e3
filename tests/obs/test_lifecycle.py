"""Unit tests for the deterministic packet-lifecycle tracer."""

import io
import json

import pytest

from repro.exceptions import AnalysisError
from repro.obs.lifecycle import (
    LIFECYCLE_STAGES,
    NOISE_SEQ,
    NULL_LIFECYCLE,
    LifecycleTracer,
    get_lifecycle,
    lifecycle_sampled,
    lifecycle_trace_id,
    set_lifecycle,
    use_lifecycle,
)
from repro.obs.artifacts import validate_artifact


class TestTraceIds:
    def test_deterministic_across_instances(self):
        a = lifecycle_trace_id(7, "r00", 3, 41)
        b = lifecycle_trace_id(7, "r00", 3, 41)
        assert a == b
        assert len(a) == 16
        int(a, 16)  # pure hex

    def test_distinct_cells_get_distinct_ids(self):
        ids = {
            lifecycle_trace_id(seed, receiver, block, seq)
            for seed in (1, 2)
            for receiver in ("r00", "r01")
            for block in (0, 1)
            for seq in (1, 2)
        }
        assert len(ids) == 16

    def test_tracer_caches_and_matches_free_function(self):
        tracer = LifecycleTracer(run_seed=99)
        assert tracer.trace_id("r03", 2, 7) == lifecycle_trace_id(
            99, "r03", 2, 7)

    def test_sampling_is_by_trace_hash(self):
        trace = lifecycle_trace_id(5, "r00", 0, 1)
        assert lifecycle_sampled(trace, 1)
        assert lifecycle_sampled(trace, 4) == (int(trace, 16) % 4 == 0)


class TestRecording:
    def test_events_sorted_by_canonical_key(self):
        tracer = LifecycleTracer(run_seed=1)
        # Emitted out of order on purpose.
        tracer.record("r01", 0, 2, "verify", "lost", 0.5)
        tracer.record("r00", 1, 1, "sign", "signed", 0.0)
        tracer.record("r00", 0, 1, "transport", "deliver", 0.2)
        tracer.record("r00", 0, 1, "sign", "signed", 0.1)
        events = tracer.events()
        keys = [(e["b"], e["r"], e["seq"], e["t"]) for e in events]
        assert keys == sorted(keys)
        assert [e["stage"] for e in events[:2]] == ["sign", "transport"]

    def test_same_time_ties_break_by_stage_order(self):
        tracer = LifecycleTracer(run_seed=1)
        tracer.record("r00", 0, 1, "frame", "framed", 0.0)
        tracer.record("r00", 0, 1, "sign", "signed", 0.0)
        stages = [e["stage"] for e in tracer.events()]
        assert stages == ["sign", "frame"]

    def test_sampling_drops_whole_traces(self):
        sample = 3
        tracer = LifecycleTracer(run_seed=2, sample=sample)
        for seq in range(1, 40):
            tracer.record("r00", 0, seq, "sign", "signed", 0.0)
            tracer.record("r00", 0, seq, "verify", "lost", 1.0)
        kept_seqs = {e["seq"] for e in tracer.events()}
        for seq in range(1, 40):
            expected = lifecycle_sampled(tracer.trace_id("r00", 0, seq),
                                         sample)
            assert (seq in kept_seqs) == expected
        # Kept traces are complete: both events survive together.
        counts = {}
        for event in tracer.events():
            counts[event["seq"]] = counts.get(event["seq"], 0) + 1
        assert all(count == 2 for count in counts.values())
        assert tracer.events_dropped > 0

    def test_attrs_ride_along(self):
        tracer = LifecycleTracer(run_seed=3)
        tracer.record("r00", 0, 1, "transport", "deliver", 0.1,
                      kind="replayed")
        (event,) = tracer.events()
        assert event["kind"] == "replayed"

    def test_invalid_sample_rejected(self):
        with pytest.raises(AnalysisError):
            LifecycleTracer(run_seed=0, sample=0)


class TestFlushAndClose:
    def test_flush_writes_sorted_lines_and_clears(self):
        stream = io.StringIO()
        tracer = LifecycleTracer(run_seed=4, sink=stream)
        tracer.record("r00", 0, 2, "sign", "signed", 0.1)
        tracer.record("r00", 0, 1, "sign", "signed", 0.0)
        assert tracer.flush() == 2
        assert tracer.flush() == 0  # buffer cleared
        lines = [json.loads(line) for line in
                 stream.getvalue().splitlines()]
        assert [line["seq"] for line in lines] == [1, 2]

    def test_context_manager_flushes_on_error(self):
        stream = io.StringIO()
        with pytest.raises(RuntimeError):
            with LifecycleTracer(run_seed=5, sink=stream) as tracer:
                tracer.record("r00", 0, 1, "sign", "signed", 0.0)
                raise RuntimeError("boom")
        (line,) = stream.getvalue().splitlines()
        assert json.loads(line)["stage"] == "sign"

    def test_file_round_trip_validates(self, tmp_path):
        path = str(tmp_path / "lifecycle.jsonl")
        with LifecycleTracer(run_seed=6, sink=path) as tracer:
            tracer.record("r00", 0, 1, "sign", "signed", 0.0)
            tracer.record("r00", 0, NOISE_SEQ, "ingest", "undecodable", 0.2)
        assert validate_artifact(path, "lifecycle") == 2


class TestCurrentTracer:
    def test_null_singleton_is_disabled_and_inert(self):
        assert get_lifecycle() is NULL_LIFECYCLE
        assert not NULL_LIFECYCLE.enabled
        NULL_LIFECYCLE.record("r00", 0, 1, "sign", "signed", 0.0)
        assert NULL_LIFECYCLE.events() == []

    def test_use_lifecycle_scopes_and_restores(self):
        tracer = LifecycleTracer(run_seed=7)
        with use_lifecycle(tracer) as current:
            assert current is tracer
            assert get_lifecycle() is tracer
        assert get_lifecycle() is NULL_LIFECYCLE

    def test_use_lifecycle_restores_on_error(self):
        tracer = LifecycleTracer(run_seed=8)
        with pytest.raises(ValueError):
            with use_lifecycle(tracer):
                raise ValueError("boom")
        assert get_lifecycle() is NULL_LIFECYCLE

    def test_set_lifecycle_none_restores_null(self):
        tracer = LifecycleTracer(run_seed=9)
        previous = set_lifecycle(tracer)
        try:
            assert get_lifecycle() is tracer
        finally:
            set_lifecycle(None)
        assert get_lifecycle() is NULL_LIFECYCLE
        assert previous is NULL_LIFECYCLE


class TestValidation:
    def _write(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def _event(self, **overrides):
        event = {"trace": "0" * 16, "r": "r00", "b": 0, "seq": 1,
                 "stage": "sign", "status": "signed", "t": 0.0}
        event.update(overrides)
        return json.dumps(event)

    def test_rejects_unknown_stage(self, tmp_path):
        path = self._write(tmp_path, [self._event(stage="teleport")])
        with pytest.raises(AnalysisError, match="unknown stage"):
            validate_artifact(path, "lifecycle")

    def test_rejects_illegal_status_for_stage(self, tmp_path):
        path = self._write(tmp_path, [self._event(status="deliver")])
        with pytest.raises(AnalysisError, match="illegal"):
            validate_artifact(path, "lifecycle")

    def test_rejects_malformed_trace_id(self, tmp_path):
        path = self._write(tmp_path, [self._event(trace="nope")])
        with pytest.raises(AnalysisError, match="trace id"):
            validate_artifact(path, "lifecycle")

    def test_rejects_missing_field(self, tmp_path):
        event = json.loads(self._event())
        del event["status"]
        path = self._write(tmp_path, [json.dumps(event)])
        with pytest.raises(AnalysisError, match="missing field"):
            validate_artifact(path, "lifecycle")

    def test_stage_tuple_is_canonical(self):
        assert LIFECYCLE_STAGES == ("sign", "frame", "enqueue",
                                    "transport", "ingest", "verify")
