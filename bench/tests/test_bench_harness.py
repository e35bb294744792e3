"""Tests of the benchmark harness itself (run with ``pytest bench/tests``)."""

import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import metrics
import tracing
from metrics import BenchError
from tracing import Probe, Target, install_block_hooks, install_tracing
from workloads import ServeWorkload, make_workload

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _hooked_attributes():
    """``(owner, attribute)`` for every attribute the harness replaces."""
    from repro.crypto.batch import BatchVerifier
    from repro.serve.receiver import ReceiverPool
    from repro.serve.sender import SenderService
    from repro.serve.transport import LocalTransport
    from repro.simulation.receiver import ChainReceiver
    from repro.simulation.sender import StreamSender

    pairs = [(SenderService, "submit_block"), (ReceiverPool, "wait_block"),
             (StreamSender, "send_block"), (LocalTransport, "send"),
             (LocalTransport, "subscribe"), (ChainReceiver, "__init__"),
             (BatchVerifier, "__init__")]
    for target in tracing.TARGETS:
        pairs += tracing._resolve(target)
    return pairs


def _state(pairs):
    return [(attr in vars(owner), vars(owner).get(attr))
            for owner, attr in pairs]


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_traced_and_untraced_units_give_identical_digests(name):
    workload = make_workload(name, 7)
    probe = Probe()
    hooks = install_block_hooks(probe)
    try:
        plain = workload.run(probe, warmup=True)
        patcher = install_tracing(probe)
        try:
            traced = workload.run(probe, traced=True, warmup=True)
        finally:
            patcher.restore()
    finally:
        hooks.restore()
    assert plain["violations"] == [] and traced["violations"] == []
    assert traced["digests"] == plain["digests"]
    assert patcher.missing == []
    self_ns, calls = tracing.self_times(probe.spans)
    assert calls[workload.root] == 1
    assert min(self_ns.values()) >= 0
    assert sum(self_ns.values()) / 1e9 == pytest.approx(traced["wall_s"],
                                                       rel=0.01)


def test_every_wrapped_attribute_is_restored():
    pairs = _hooked_attributes()
    before = _state(pairs)
    probe = Probe()
    hooks = install_block_hooks(probe)
    patcher = install_tracing(probe)
    assert _state(pairs) != before
    patcher.restore()
    hooks.restore()
    assert _state(pairs) == before
    from repro.topology.channel import TopologyChannel
    assert "transmit" not in vars(TopologyChannel)


def test_self_time_subtracts_direct_children():
    spans = [
        ("serve.loop", 0, 100, -1, -1),
        ("simulation.ingest", 10, 50, 0, 0),
        ("packets.decode", 20, 30, 1, 0),
        ("crypto.verify", 32, 40, 1, 0),
        ("simulation.ingest", 60, 70, 0, 1),
    ]
    self_ns, calls = tracing.self_times(spans)
    assert self_ns == {"serve.loop": 50, "simulation.ingest": 32,
                       "packets.decode": 10, "crypto.verify": 8}
    assert calls == {"serve.loop": 1, "simulation.ingest": 2,
                     "packets.decode": 1, "crypto.verify": 1}
    assert sum(self_ns.values()) == 100


def test_same_layer_and_absorbed_calls_open_no_span():
    probe = Probe()
    inner = probe.span_wrapper("crypto.sign", ("crypto.verify",),
                               lambda: None)
    verify = probe.span_wrapper("crypto.verify", (), inner)
    with probe.root("serve.loop"):
        verify()
        inner()
    names = [span[0] for span in probe.spans]
    assert names == ["serve.loop", "crypto.verify", "crypto.sign"]


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(BenchError):
        metrics.percentile(range(199), 0.95)
    assert metrics.percentile(range(200), 0.95) == 189
    assert metrics.percentile(range(20), 0.5) == 9


def test_forged_acceptance_counts_as_a_failure():
    config = SimpleNamespace(receivers=1, blocks=2)
    result = SimpleNamespace(forged_accepted=1,
                             transcripts={"r00": b"{}\n{}\n"})
    violations = ServeWorkload._violations(config, result, settled=2)
    assert violations == ["forged_accepted=1"]
    good = {"input": 0, "digests": {"transcripts": "a"}, "violations": []}
    bad = {"input": 0, "digests": {"transcripts": "a"},
           "violations": violations}
    failed = metrics.failures([good, bad], None)
    assert len(failed) == 1 and "forged_accepted=1" in failed[0]
    values = {m["name"]: 1.0 for m in metrics.load_spec()["end_to_end"]}
    result_obj = metrics.result_object(
        values, metrics.load_spec()["end_to_end"], 2, len(failed))
    assert result_obj["correct"] is False and result_obj["failed"] == 1


def test_digest_mismatch_and_errors_count_as_failures():
    samples = [{"input": 0, "digests": {"stats": "a"}, "violations": []},
               {"input": 1, "digests": {"stats": "b"}, "violations": []},
               {"input": 0, "digests": {"stats": "b"}, "violations": []},
               {"input": 1, "error": "RuntimeError: boom"}]
    assert len(metrics.failures(samples, None)) == 2
    assert len(metrics.failures(samples, [{"stats": "b"},
                                          {"stats": "b"}])) == 2


def test_benchmark_json_follows_the_format_and_matches_the_harness():
    spec = metrics.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    workloads, end_to_end, per_layer = (spec["workloads"], spec["end_to_end"],
                                        spec["per_layer"])
    assert [w["name"] for w in workloads] == list(metrics.WORKLOADS)
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    for metric in end_to_end + per_layer:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    names = [item["name"] for item in workloads + end_to_end + per_layer]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in end_to_end)

    assert ([(m["name"], m["unit"], m["better"]) for m in per_layer]
            == tracing.per_layer_metric_names())
    sample = {"wall_s": 1.0, "packets": 10,
              "latencies_ms": [float(i) for i in range(200)],
              "latency_slices": [(i, i + 1) for i in range(200)],
              "slices_us": [300.0] * 201}
    computed = metrics.end_to_end([sample], [0.5], [300.0], [1024])
    assert [m["name"] for m in end_to_end] == list(computed)
    pins = metrics.load_pins()
    assert sorted(pins["digests"]) == sorted(metrics.WORKLOADS)
    assert all(len(d) == metrics.INPUTS for d in pins["digests"].values())


def test_missing_wrap_target_degrades_to_missing():
    targets = (tracing.TARGETS[0],
               Target("x.layer", "repro.packets", "NoSuchClass.method"),
               Target("y.layer", "repro.no_such_module", "function"))
    patcher = install_tracing(Probe(), targets)
    try:
        assert patcher.missing == [
            "x.layer: repro.packets.NoSuchClass.method",
            "y.layer: repro.no_such_module.function"]
    finally:
        patcher.restore()


def test_compare_flags_a_metric_worse_than_its_bound():
    spec = metrics.load_spec()

    def results(rate, latency):
        values = {"pkts_per_s": rate, "block_latency_p50_ms": latency,
                  "block_latency_p95_ms": latency, "setup_s": 0.5,
                  "peak_rss_mb": 64.0}
        return {"fanout64": metrics.result_object(
            values, spec["end_to_end"], 1, 0)}

    rows, ok = metrics.compare(results(1000.0, 10.0),
                               results(980.0, 10.5), spec)
    assert ok and len(rows) == 1
    rows, ok = metrics.compare(results(1000.0, 10.0),
                               results(800.0, 10.0), spec)
    assert not ok and "pkts_per_s" in rows[0] and "WORSE" in rows[0]


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bigblock128",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
