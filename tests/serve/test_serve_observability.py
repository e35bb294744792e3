"""End-to-end observability of the serving stack.

Pins the tentpole guarantees: instrumented sessions emit byte-identical
lifecycle and timeseries files across runs, lifecycle events cover
every stage of the canonical pipeline, the run manifest folds the
observability tallies, and the CLI flags drive the whole thing.
"""

import json
import re

import pytest

from repro.cli import main
from repro.obs import validate_artifact
from repro.obs.lifecycle import LIFECYCLE_STAGES, LifecycleTracer
from repro.obs.timeseries import CONTROLLER_ROW, TimeseriesSampler
from repro.serve.loadgen import ObsOptions, run_loadgen
from repro.serve.service import ServeConfig, run_live_session

CONFIG = ServeConfig(receivers=3, blocks=6, block_size=8,
                     attack="pollution",
                     loss_schedule=((0, 0.05), (3, 0.3)), seed=29)


def _run_instrumented(config):
    tracer = LifecycleTracer(config.seed)
    sampler = TimeseriesSampler(interval_s=0.01)
    session = run_live_session(config, lifecycle=tracer,
                               timeseries=sampler)
    return session, tracer, sampler


@pytest.fixture(scope="module")
def instrumented():
    return _run_instrumented(CONFIG)


class TestLifecycleCoverage:
    def test_every_stage_appears(self, instrumented):
        _, tracer, _ = instrumented
        stages = {e["stage"] for e in tracer.events()}
        assert stages == set(LIFECYCLE_STAGES)

    def test_attack_kinds_tagged_on_transport_events(self, instrumented):
        _, tracer, _ = instrumented
        kinds = {e.get("kind") for e in tracer.events()
                 if e["stage"] == "transport" and e["status"] == "deliver"}
        assert "forged" in kinds or "replayed" in kinds or \
            "corrupted" in kinds

    def test_verify_verdict_per_expected_seq(self, instrumented):
        session, tracer, _ = instrumented
        verdicts = [e for e in tracer.events() if e["stage"] == "verify"]
        # One verdict per (receiver, seq) cell the transcripts settled.
        expected = sum(
            len(json.loads(line)["events"])
            for transcript in session.transcripts.values()
            for line in transcript.decode().splitlines())
        assert len(verdicts) == expected > 0

    def test_manifest_folds_observability_tallies(self, instrumented):
        session, tracer, sampler = instrumented
        obs = session.manifest.parameters["observability"]
        assert obs["lifecycle"]["events"] == tracer.events_recorded
        assert obs["lifecycle"]["sample"] == 1
        assert obs["timeseries"]["rows"] == len(sampler.samples)


class TestTimeseriesContent:
    def test_rows_cover_all_receivers_and_controller(self, instrumented):
        _, _, sampler = instrumented
        receivers = {row["r"] for row in sampler.samples}
        assert receivers == set(CONFIG.receiver_ids()) | {CONTROLLER_ROW}

    def test_controller_row_carries_adaptation_state(self, instrumented):
        _, _, sampler = instrumented
        controller_rows = [row for row in sampler.samples
                           if row["r"] == CONTROLLER_ROW]
        assert controller_rows
        for row in controller_rows:
            assert row["scheme"].startswith("emss(")
            assert row["m"] >= 1 and row["d"] >= 1
            assert 0.0 <= row["p_design"] <= 1.0

    def test_receiver_rows_carry_defensive_gauges(self, instrumented):
        _, _, sampler = instrumented
        row = next(r for r in sampler.samples if r["r"] == "r00")
        for gauge in ("buffered", "pending", "delivered", "window_rate",
                      "ewma_rate", "forged_rejected", "undecodable",
                      "replays_dropped"):
            assert gauge in row


class TestByteIdentity:
    def _emit(self, tmp_path, tag, receivers=2, adaptive=True):
        config = ServeConfig(receivers=receivers, blocks=5, block_size=8,
                             attack="pollution", seed=31,
                             adaptive=adaptive)
        obs = ObsOptions(
            lifecycle_out=str(tmp_path / f"lc-{tag}.jsonl"),
            timeseries_out=str(tmp_path / f"ts-{tag}.jsonl"),
            perfetto_out=str(tmp_path / f"pf-{tag}.json"),
            timeseries_interval=0.005,
        )
        run_loadgen(config, obs=obs)
        return {name: open(tmp_path / f"{name}-{tag}"
                           f"{'.json' if name == 'pf' else '.jsonl'}",
                           "rb").read()
                for name in ("lc", "ts", "pf")}

    def test_two_runs_emit_identical_bytes(self, tmp_path):
        first = self._emit(tmp_path, "a")
        second = self._emit(tmp_path, "b")
        assert first == second
        assert all(first.values())  # and they are not trivially empty

    def test_receiver_count_changes_only_add_rows(self, tmp_path):
        # Determinism is per-receiver: with the controller frozen (the
        # pooled loss feedback depends on the audience), r00's
        # lifecycle lines in a 1-receiver run are a subset of the
        # 2-receiver run's.
        one = self._emit(tmp_path, "one", receivers=1, adaptive=False)
        two = self._emit(tmp_path, "two", receivers=2, adaptive=False)
        lines_one = {line for line in one["lc"].splitlines()
                     if b'"r": "r00"' in line}
        lines_two = {line for line in two["lc"].splitlines()
                     if b'"r": "r00"' in line}
        assert lines_one and lines_one <= lines_two


class TestPromCoverage:
    """The gap regression: every serving-plane counter family reaches
    ``--prom-out`` — as a zero-valued series when the feature idles,
    as live counts when it runs."""

    def _prom(self, tmp_path, name, **overrides):
        path = tmp_path / f"{name}.prom"
        config = ServeConfig(receivers=2, blocks=6, block_size=8,
                             seed=5, **overrides)
        run_loadgen(config, obs=ObsOptions(prom_out=str(path)))
        return path.read_text()

    def test_plain_serve_exposes_batch_series(self, tmp_path):
        text = self._prom(tmp_path, "plain")
        assert "repro_serve_batch_signs_total 0" in text
        assert "repro_serve_batch_flushes_total 0" in text

    def test_batched_serve_counts_signs_and_root_verifies(self, tmp_path):
        text = self._prom(tmp_path, "batched", batch_size=3)
        signs = int(re.search(
            r"repro_serve_batch_signs_total (\d+)", text).group(1))
        assert signs > 0
        roots = int(re.search(
            r"repro_serve_batch_root_verifies_total (\d+)", text).group(1))
        assert roots > 0

    def test_plain_serve_counts_shared_signature_verdicts(self, tmp_path):
        text = self._prom(tmp_path, "shared-verdicts")
        calls = int(re.search(
            r"repro_serve_batch_passthrough_verifies_total (\d+)",
            text).group(1))
        hits = int(re.search(
            r"repro_serve_batch_passthrough_cache_hits_total (\d+)",
            text).group(1))
        # Two receivers, six blocks, one real verification per block.
        assert (calls, hits) == (12, 6)

    def test_table_serve_exposes_design_series(self, tmp_path):
        from repro.design.table import DesignTable, TableSpec
        table = DesignTable.build(
            TableSpec(p_grid=(0.05, 0.1, 0.3, 0.5), families=("emss",)),
            workers=1)
        table_file = str(tmp_path / "table.json")
        table.save(table_file)
        text = self._prom(tmp_path, "table", design_table=table_file)
        for series in ("design_service_lookups", "design_service_hits",
                       "design_service_misses", "design_service_fallbacks",
                       "design_inline_calls", "design_refresh_requests"):
            assert re.search(rf"repro_{series}_total \d+", text), series
        lookups = int(re.search(
            r"repro_design_service_lookups_total (\d+)", text).group(1))
        assert lookups > 0


class TestCliFlags:
    def test_loadgen_emits_and_validates_artifacts(self, tmp_path, capsys):
        lc = tmp_path / "lifecycle.jsonl"
        ts = tmp_path / "timeseries.jsonl"
        prom = tmp_path / "metrics.prom"
        pf = tmp_path / "perfetto.json"
        code = main(["loadgen", "--receivers", "2", "--blocks", "4",
                     "--block-size", "8", "--attack", "pollution",
                     "--seed", "5",
                     "--lifecycle-out", str(lc),
                     "--timeseries-out", str(ts),
                     "--timeseries-interval", "0.005",
                     "--prom-out", str(prom),
                     "--perfetto-out", str(pf)])
        assert code == 0
        assert validate_artifact(str(lc), "lifecycle") > 0
        assert validate_artifact(str(ts), "timeseries") > 0
        assert "# TYPE" in prom.read_text()
        payload = json.loads(pf.read_text())
        assert payload["traceEvents"]
        summary = json.loads(capsys.readouterr().out)
        assert summary["lifecycle_events"] > 0
        assert summary["timeseries_samples"] > 0

    def test_trace_sample_flag_thins_the_file(self, tmp_path, capsys):
        full = tmp_path / "full.jsonl"
        thin = tmp_path / "thin.jsonl"
        base = ["loadgen", "--receivers", "2", "--blocks", "4",
                "--block-size", "8", "--seed", "5"]
        assert main(base + ["--lifecycle-out", str(full)]) == 0
        assert main(base + ["--lifecycle-out", str(thin),
                            "--trace-sample", "8"]) == 0
        capsys.readouterr()
        full_lines = set(full.read_text().splitlines())
        thin_lines = set(thin.read_text().splitlines())
        assert len(thin_lines) < len(full_lines)
        assert thin_lines <= full_lines

    def test_trace_sample_rejects_zero(self, capsys):
        with pytest.raises(SystemExit):
            main(["loadgen", "--trace-sample", "0"])

    def test_serve_accepts_observability_flags(self, tmp_path, capsys):
        lc = tmp_path / "lifecycle.jsonl"
        code = main(["serve", "--receivers", "2", "--blocks", "3",
                     "--block-size", "8", "--lifecycle-out", str(lc)])
        assert code == 0
        assert validate_artifact(str(lc), "lifecycle") > 0
