"""Crash-safety of the trace sinks and instrumented serve runs.

The invariant: an instrumented run that dies mid-stream must
still leave parseable JSON-lines artifacts behind — never a torn line,
never silently dropped buffered events.
"""

import io
import json

import pytest

from repro.obs.artifacts import validate_artifact
from repro.obs.health import HealthMonitor
from repro.obs.lifecycle import LifecycleTracer
from repro.obs.sinks import CanonicalLog, TraceSink
from repro.obs.timeseries import TimeseriesSampler
from repro.serve.service import ServeConfig, run_live_session


class TestTraceSinkBuffering:
    def test_unbuffered_writes_hit_the_handle_immediately(self):
        stream = io.StringIO()
        sink = TraceSink(stream)
        sink.write({"a": 1})
        assert stream.getvalue() == '{"a": 1}\n'

    def test_owned_file_closed_borrowed_stream_left_open(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = TraceSink(path)
        sink.write({"a": 1})
        sink.close()
        assert json.loads(open(path).read()) == {"a": 1}
        stream = io.StringIO()
        TraceSink(stream).close()
        stream.write("still open")  # would raise on a closed stream


class TestCanonicalLog:
    def test_flush_writes_key_order_and_clears(self):
        stream = io.StringIO()
        log = CanonicalLog(stream)
        log.append((2,), {"x": "late"})
        log.append((1,), {"x": "early"})
        log.append((2,), {"x": "late-second"})  # equal keys keep order
        assert stream.getvalue() == ""
        assert log.sorted_records() == [{"x": "early"}, {"x": "late"},
                                        {"x": "late-second"}]
        assert log.flush() == 3
        assert log.flush() == 0
        assert [json.loads(line)["x"] for line in
                stream.getvalue().splitlines()] == ["early", "late",
                                                    "late-second"]

    @pytest.mark.parametrize("kind", ["path", "stream", "sink"])
    def test_every_target_type_gets_the_same_bytes(self, kind, tmp_path):
        path = str(tmp_path / "log.jsonl")
        stream = open(path, "w") if kind == "stream" else None
        target = {"path": path, "stream": stream,
                  "sink": TraceSink(path) if kind == "sink" else None}[kind]
        log = CanonicalLog(target)
        log.append((1,), {"b": 1, "a": 2})
        log.close()
        if stream is not None:
            assert not stream.closed  # borrowed streams stay open
            stream.close()
        assert (tmp_path / "log.jsonl").read_text() == '{"a": 2, "b": 1}\n'

    def test_memory_only_flush_counts_and_discards(self):
        log = CanonicalLog(None)
        log.append((0,), {"a": 1})
        assert log.sink is None
        assert log.flush() == 1
        assert log.sorted_records() == []

    def test_close_is_idempotent(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        log = CanonicalLog(path)
        log.append((0,), {"a": 1})
        log.close()
        log.close()
        assert (tmp_path / "log.jsonl").read_text() == '{"a": 1}\n'

    def test_context_manager_flushes_on_exception(self):
        stream = io.StringIO()
        with pytest.raises(RuntimeError):
            with CanonicalLog(stream) as log:
                log.append((0,), {"a": 1})
                raise RuntimeError("boom")
        assert stream.getvalue() == '{"a": 1}\n'


class _Boom(Exception):
    pass


class _CrashingSigner:
    """A signer that explodes on the Nth block signature.

    Crashing the *sender* keeps the failure in the session's main
    coroutine (a dead receiver task would just stall the barrier),
    which is the realistic mid-run abort: some blocks fully traced,
    the current one cut off.
    """

    def __init__(self, inner, after):
        self._inner = inner
        self._after = after
        self._calls = 0

    @property
    def name(self):
        return self._inner.name

    @property
    def signature_size(self):
        return self._inner.signature_size

    def sign(self, data):
        self._calls += 1
        if self._calls > self._after:
            raise _Boom("signer died mid-run")
        return self._inner.sign(data)

    def verify(self, data, signature):
        return self._inner.verify(data, signature)


class TestCrashedRunLeavesParseableArtifacts:
    def test_crashing_session_still_yields_valid_json_lines(self, tmp_path):
        from repro.serve.service import default_serve_signer

        paths = {kind: str(tmp_path / f"{kind}.jsonl")
                 for kind in ("lifecycle", "timeseries", "alerts")}
        config = ServeConfig(receivers=2, blocks=6, block_size=8, seed=13)
        signer = _CrashingSigner(default_serve_signer(config.seed), after=3)
        tracer = LifecycleTracer(config.seed, sink=paths["lifecycle"])
        sampler = TimeseriesSampler(interval_s=0.001,
                                    sink=paths["timeseries"])
        # A perfect-delivery target with a one-packet deficit: every
        # lost packet before the crash fires an SLO breach.
        monitor = HealthMonitor(q_target="1/1", deficit=1,
                                sink=paths["alerts"])
        with pytest.raises(_Boom):
            with tracer, sampler, monitor:
                run_live_session(config, signer=signer, lifecycle=tracer,
                                 timeseries=sampler, health=monitor)
        # Every artifact passes its schema; the story up to the crash
        # survived in all three.
        for kind, path in paths.items():
            assert validate_artifact(path, kind) > 0, kind
        assert validate_artifact(paths["alerts"], "alerts") == len(
            monitor.alerts)
