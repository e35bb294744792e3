"""Unit tests for run manifests, sinks and schema validation."""

import io
import json

import pytest

import repro.obs.manifest as manifest_module
from repro.analysis.conformance import attack_mix, default_scheme, wire_q_stats
from repro.exceptions import AnalysisError
from repro.obs.manifest import (
    MANIFEST_VERSION,
    RunManifest,
    git_sha,
    validate_manifest_payload,
    validate_metrics_file,
    validate_metrics_payload,
)
from repro.obs.registry import MetricsRegistry, use_registry
from repro.obs.sinks import TraceSink, write_json_file
from repro.schemes.emss import EmssScheme
from repro.simulation.adversarial import adversarial_monte_carlo


def _finished_manifest():
    registry = MetricsRegistry()
    registry.count("mc.graph.trials", 5000)
    registry.count("pool.tasks", 16)
    registry.count("wire.packets_sent", 480)  # not a trial counter
    clock = RunManifest.start("experiment", "fig9",
                              parameters={"fast": True}, seed_root=7,
                              workers=4)
    return clock.finish(registry)


def test_start_finish_lifts_trial_counters():
    manifest = _finished_manifest()
    assert manifest.trial_counts == {"mc.graph.trials": 5000,
                                     "pool.tasks": 16}
    assert manifest.wall_time_s >= 0.0
    assert manifest.cpu_time_s >= 0.0
    assert manifest.started_at  # ISO timestamp stamped at start
    assert manifest.manifest_version == MANIFEST_VERSION


@pytest.mark.parametrize("run", [
    lambda: wire_q_stats(default_scheme("tesla"), 8, 0.1, 3),
    lambda: adversarial_monte_carlo(EmssScheme(2, 1), 8, 0.1,
                                    attack_mix("pollution"), 3),
], ids=["tesla", "attacked"])
def test_every_wire_run_lifts_its_trial_count(run):
    registry = MetricsRegistry()
    clock = RunManifest.start("experiment", "wire", parameters={},
                              seed_root=7, workers=1)
    with use_registry(registry):
        run()
    assert clock.finish(registry).trial_counts == {"wire.trials": 3}


def test_manifest_round_trips_through_dict():
    manifest = _finished_manifest()
    rebuilt = RunManifest.from_dict(manifest.to_dict())
    assert rebuilt.to_dict() == manifest.to_dict()


def test_git_sha_inside_repo():
    sha = git_sha()
    # tests run inside the repo checkout, so a short SHA is expected
    assert sha is None or (len(sha) >= 7 and all(
        c in "0123456789abcdef" for c in sha))


@pytest.fixture
def counted_git(monkeypatch):
    """Count ``git`` forks, starting from an empty per-process cache."""
    calls = []
    run = manifest_module.subprocess.run

    def counted_run(args, **kwargs):
        calls.append(kwargs["cwd"])
        return run(args, **kwargs)

    manifest_module._git_sha_at.cache_clear()
    monkeypatch.setattr(manifest_module.subprocess, "run", counted_run)
    yield calls
    manifest_module._git_sha_at.cache_clear()


def test_git_sha_runs_git_once_per_process(counted_git):
    first = RunManifest.start("serve", "a").finish().git_sha
    second = RunManifest.start("serve", "b").finish().git_sha
    assert first == second == git_sha()
    assert len(counted_git) == 1


def test_git_sha_outside_a_repo_is_none(counted_git, tmp_path,
                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert git_sha() is None
    assert RunManifest.start("serve", "c").finish().git_sha is None
    assert counted_git == [str(tmp_path.resolve())]


def test_validate_rejects_missing_and_mistyped_fields():
    payload = _finished_manifest().to_dict()
    broken = dict(payload)
    del broken["workers"]
    with pytest.raises(AnalysisError, match="missing required field"):
        validate_manifest_payload(broken)

    broken = dict(payload)
    broken["workers"] = True  # bool must not pass as int
    with pytest.raises(AnalysisError, match="workers"):
        validate_manifest_payload(broken)

    broken = dict(payload)
    broken["manifest_version"] = 99
    with pytest.raises(AnalysisError, match="version"):
        validate_manifest_payload(broken)

    broken = dict(payload)
    broken["trial_counts"] = {"x": "many"}
    with pytest.raises(AnalysisError, match="trial_counts"):
        validate_manifest_payload(broken)


def test_validate_metrics_payload_counts_runs():
    manifest = _finished_manifest()
    registry = MetricsRegistry()
    registry.count("n")
    payload = {"format": 1, "runs": [
        {"manifest": manifest.to_dict(), "metrics": registry.snapshot()},
        {"manifest": manifest.to_dict(), "metrics": None},
    ]}
    assert validate_metrics_payload(payload) == 2


def test_validate_metrics_payload_rejects_bad_shapes():
    with pytest.raises(AnalysisError, match="JSON object"):
        validate_metrics_payload([])
    with pytest.raises(AnalysisError, match="format"):
        validate_metrics_payload({"format": 2, "runs": [{}]})
    with pytest.raises(AnalysisError, match="non-empty"):
        validate_metrics_payload({"format": 1, "runs": []})
    with pytest.raises(AnalysisError, match="missing required field"):
        validate_metrics_payload({"format": 1, "runs": [{"manifest": {}}]})


def test_validate_metrics_file(tmp_path):
    manifest = _finished_manifest()
    path = str(tmp_path / "metrics.json")
    write_json_file(path, {"format": 1,
                           "runs": [{"manifest": manifest.to_dict(),
                                     "metrics": None}]})
    assert validate_metrics_file(path) == 1


def test_trace_sink_owns_path_handles_only(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    with TraceSink(path) as sink:
        sink.write({"event": "begin", "span": "s"})
        sink.write({"event": "end", "span": "s"})
        assert sink.records_written == 2
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert [json.loads(line)["event"] for line in lines] == ["begin", "end"]

    buffer = io.StringIO()
    sink = TraceSink(buffer)
    sink.write({"k": 1})
    sink.close()  # borrowed stream stays open
    assert not buffer.closed
    assert json.loads(buffer.getvalue()) == {"k": 1}
