"""Acceptance: the online health plane flying inside live serving.

The contract: health alerts are a pure function of the serve config —
pinned blocks, byte-identical files across reruns, shard-count
invariant under the monitor's merge — the clean staircase never trips
a critical, drift alerts drive the controller's counted refresh hook,
and the CLI surfaces the whole plane (flags, summary, exit codes,
manifest, Prometheus, Perfetto).
"""

import json

import pytest

from repro.cli import main
from repro.obs.artifacts import validate_artifact
from repro.obs.health import HealthMonitor
from repro.obs.sinks import CanonicalLog
from repro.serve.loadgen import ObsOptions, run_loadgen
from repro.serve.service import ServeConfig, run_live_session

# Ramp to 0.6 leaves the default controller lattice (top 0.5): SLO
# breaches under q:0.9 plus exactly one off-lattice entry.
LOSSY = dict(receivers=4, blocks=16, block_size=10,
             loss_schedule=((0, 0.05), (6, 0.6)), seed=31)
SLO = "q:0.9:8"

# Same shape inside the lattice: the zero-false-positive control.
CLEAN = dict(receivers=4, blocks=16, block_size=10,
             loss_schedule=((0, 0.05), (6, 0.3)), seed=31)


@pytest.fixture(scope="module")
def lossy(tmp_path_factory):
    path = tmp_path_factory.mktemp("health") / "alerts.jsonl"
    result = run_loadgen(ServeConfig(**LOSSY),
                         obs=ObsOptions(alerts_out=str(path), slo=SLO))
    return result, path


class TestPinnedAlerts:
    def test_off_lattice_fires_at_the_pinned_block(self, lossy):
        result, _ = lossy
        drift = [a for a in result.health.alerts if a.kind == "off-lattice"]
        assert [a.block for a in drift] == [11]
        assert drift[0].scope == "_pool"
        assert drift[0].detail["lattice_top"] == "1/2"

    def test_slo_breaches_start_where_the_chain_thins(self, lossy):
        result, _ = lossy
        breaches = [a for a in result.health.alerts
                    if a.kind == "slo-breach"]
        assert (breaches[0].block, breaches[0].scope) == (4, "r:r03")
        assert len(breaches) == 21

    def test_drift_alert_drives_the_refresh_hook(self, lossy):
        result, _ = lossy
        assert result.summary["health"]["refresh_requests"] == 1

    def test_no_criticals_without_soundness_violation(self, lossy):
        result, _ = lossy
        assert result.health.counts()["critical"] == 0
        assert result.session.forged_accepted == 0

    def test_alerts_file_validates(self, lossy):
        result, path = lossy
        assert validate_artifact(str(path), "alerts") == len(result.health.alerts)


class TestCleanStaircase:
    def test_zero_alerts_inside_the_envelope(self):
        result = run_loadgen(ServeConfig(**CLEAN),
                             obs=ObsOptions(health=True))
        assert result.health.alerts == []
        assert result.summary["health"]["worst_severity"] is None
        assert result.summary["health"]["refresh_requests"] == 0


class TestDeterminism:
    def test_alert_files_byte_identical_across_runs(self, lossy, tmp_path):
        _, first = lossy
        second = tmp_path / "alerts.jsonl"
        run_loadgen(ServeConfig(**LOSSY),
                    obs=ObsOptions(alerts_out=str(second), slo=SLO))
        assert first.read_bytes() == second.read_bytes()

    def test_manifest_health_record_is_reproducible(self, lossy):
        result, _ = lossy
        again = run_loadgen(ServeConfig(**LOSSY),
                            obs=ObsOptions(health=True, slo=SLO))
        assert (result.session.manifest.parameters["health"]
                == again.session.manifest.parameters["health"])


class _ShardRouter(HealthMonitor):
    """Routes per-scope SLO streams across shard monitors.

    Models the cohort-sharding plan: each shard owns a disjoint set of
    receiver scopes, pool-scope detectors live on shard 0, and the
    folded shard states must equal an unsharded monitor bit-for-bit.
    """

    def __init__(self, shards, **kwargs):
        super().__init__(**kwargs)
        self.shards = shards

    def configure_envelope(self, top):
        super().configure_envelope(top)
        for shard in self.shards:
            shard.configure_envelope(top)

    def _route(self, scope):
        return self.shards[sum(ord(c) for c in scope) % len(self.shards)]

    def observe_slo(self, block, scope, expected, verified, t=0.0):
        return self._route(scope).observe_slo(block, scope, expected,
                                              verified, t=t)

    def observe_envelope(self, block, lost, fill, t=0.0):
        return self.shards[0].observe_envelope(block, lost, fill, t=t)

    def observe_sentinels(self, block, **kwargs):
        return self.shards[0].observe_sentinels(block, **kwargs)


class TestShardInvariance:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_fold_equals_whole(self, workers, tmp_path):
        kwargs = dict(q_target="9/10", deficit=8)
        whole = HealthMonitor(**kwargs)
        run_live_session(ServeConfig(**LOSSY), health=whole)

        shards = [HealthMonitor(**kwargs) for _ in range(workers)]
        router = _ShardRouter(shards, **kwargs)
        run_live_session(ServeConfig(**LOSSY), health=router)
        merged = shards[0]
        for shard in shards[1:]:
            merged = merged.merge(shard)
        assert merged.describe() == whole.describe()

        # The byte-level form of the same statement: writing the merged
        # alerts through a canonical log reproduces the single-worker
        # file.
        files = []
        for name, monitor in (("merged", merged), ("whole", whole)):
            path = tmp_path / f"{name}.jsonl"
            with CanonicalLog(str(path)) as log:
                for alert in monitor.alerts:
                    log.append(alert.sort_key(), alert.to_dict())
            files.append(path.read_bytes())
        assert files[0] == files[1]


class TestSubtreeScopes:
    def test_topology_sessions_monitor_subtrees_too(self):
        config = ServeConfig(receivers=6, blocks=10, block_size=8,
                             topology="spine:3", subtree_adaptive=True,
                             loss_schedule=((0, 0.05), (4, 0.5)), seed=17)
        result = run_loadgen(config, obs=ObsOptions(health=True, slo=SLO))
        scopes = {a.scope for a in result.health.alerts}
        assert any(scope.startswith("st:") for scope in scopes)
        assert any(scope.startswith("r:") for scope in scopes)


class TestCliSurface:
    def _argv(self, config, extra):
        argv = ["loadgen", "--receivers", str(config["receivers"]),
                "--blocks", str(config["blocks"]),
                "--block-size", str(config["block_size"]),
                "--seed", str(config["seed"]),
                "--loss", str(config["loss_schedule"][0][1])]
        for block, rate in config["loss_schedule"][1:]:
            argv += ["--ramp", f"{block}:{rate}"]
        return argv + extra

    def test_flags_emit_artifacts_and_summary(self, tmp_path, capsys):
        alerts = tmp_path / "alerts.jsonl"
        prom = tmp_path / "metrics.prom"
        pf = tmp_path / "perfetto.json"
        code = main(self._argv(LOSSY, [
            "--slo", SLO, "--alerts-out", str(alerts),
            "--prom-out", str(prom), "--perfetto-out", str(pf)]))
        assert code == 0  # warnings alone never gate without strict
        assert validate_artifact(str(alerts), "alerts") == 22
        text = prom.read_text()
        assert "repro_health_alerts_warning_total 22" in text
        assert "repro_health_slo_breaches 21" in text
        payload = json.loads(pf.read_text())
        instants = [e for e in payload["traceEvents"]
                    if e.get("cat") == "alert"]
        assert len(instants) == 22
        assert {e["pid"] for e in instants} == {0}
        summary = json.loads(capsys.readouterr().out)
        assert summary["health"]["kinds"] == {"off-lattice": 1,
                                              "slo-breach": 21}

    def test_strict_health_turns_warnings_into_exit_3(self, capsys):
        code = main(self._argv(LOSSY, ["--slo", SLO, "--strict-health"]))
        assert code == 3
        assert "strict-health" in capsys.readouterr().err

    def test_clean_run_exits_zero_even_strict(self, capsys):
        code = main(self._argv(CLEAN, ["--health", "--strict-health"]))
        assert code == 0
        capsys.readouterr()

    def test_bad_slo_spec_exits_two(self, capsys):
        code = main(self._argv(CLEAN, ["--slo", "q:2.0"]))
        assert code == 2
        assert "SLO target" in capsys.readouterr().err

    def test_serve_subcommand_reports_health_too(self, capsys):
        code = main(["serve", "--receivers", "2", "--blocks", "4",
                     "--block-size", "8", "--seed", "5", "--health",
                     "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["health"]["alerts"] == {"critical": 0, "info": 0,
                                               "warning": 0}


class TestManifestFold:
    def test_manifest_carries_health_plane(self, lossy):
        result, _ = lossy
        manifest = result.session.manifest
        obs = manifest.parameters["observability"]["health"]
        assert obs == {"alerts": 22, "worst_severity": "warning"}
        record = manifest.parameters["health"]
        assert record["config"]["q_target"] == "9/10"
        assert record["config"]["envelope_top"] == "1/2"
        assert len(record["alerts"]) == 22
        assert record["sentinels"]["forged"] == 0
