"""Timeseries sampling under dynamic membership.

The gauge rows of each tick must track the *live* pool: a retired or
crashed receiver stops emitting rows at the boundary it departs, a
late joiner starts at its join block, and the emitted file still
validates and stays byte-identical across runs.  (Before the fix the
sampler iterated the full session record, so departed receivers kept
emitting frozen gauges forever.)
"""

import pytest

from repro.obs import validate_artifact
from repro.obs.timeseries import CONTROLLER_ROW, TimeseriesSampler
from repro.serve.loadgen import ObsOptions, run_loadgen
from repro.serve.service import ServeConfig, run_live_session

CHURN = ServeConfig(receivers=4, blocks=24, block_size=10,
                    loss_schedule=((0, 0.1),), churn="storm", seed=2003)


def _sampled(config):
    sampler = TimeseriesSampler(interval_s=0.01)
    session = run_live_session(config, timeseries=sampler)
    return session, sampler.samples


@pytest.fixture(scope="module")
def churn_run():
    return _sampled(CHURN)


def _rows_by_tick(samples):
    ticks = {}
    for row in samples:
        ticks.setdefault(row["t"], []).append(str(row["r"]))
    return ticks


class TestChurnGauges:
    def test_final_tick_matches_final_active(self, churn_run):
        session, samples = churn_run
        membership = session.manifest.parameters["membership"]
        ticks = _rows_by_tick(samples)
        last = ticks[max(ticks)]
        expected = sorted(membership["final_active"]) + [CONTROLLER_ROW]
        assert sorted(last) == sorted(expected)

    def test_departed_receivers_stop_emitting(self, churn_run):
        session, samples = churn_run
        membership = session.manifest.parameters["membership"]
        final_active = set(membership["final_active"])
        departed = {rid for _, kind, rid in membership["events"]
                    if kind in ("leave", "crash")}
        assert departed, "storm plan must include departures"
        last_tick = max(row["t"] for row in samples)
        for rid in departed - final_active:
            times = [row["t"] for row in samples if row["r"] == rid]
            assert times, f"{rid} never sampled while live"
            assert max(times) < last_tick, (
                f"departed receiver {rid} still emitting at the end")

    def test_receiver_rows_are_contiguous_tick_runs(self, churn_run):
        _, samples = churn_run
        ticks = sorted(_rows_by_tick(samples))
        index_of = {t: i for i, t in enumerate(ticks)}
        per_receiver = {}
        for row in samples:
            per_receiver.setdefault(str(row["r"]), []).append(
                index_of[row["t"]])
        for rid, indices in per_receiver.items():
            if rid == CONTROLLER_ROW:
                continue
            span = list(range(min(indices), max(indices) + 1))
            assert indices == span, (
                f"{rid} emitted a gapped tick run: once a member "
                f"departs it must never reappear")

    def test_joiners_absent_before_join(self, churn_run):
        session, samples = churn_run
        membership = session.manifest.parameters["membership"]
        joiners = {rid for _, kind, rid in membership["events"]
                   if kind == "join"}
        assert joiners, "storm plan must include joins"
        first_tick = min(row["t"] for row in samples)
        for rid in joiners:
            times = [row["t"] for row in samples if row["r"] == rid]
            if times:  # crashed-before-first-tick joiners never appear
                assert min(times) > first_tick

    def test_controller_row_every_tick(self, churn_run):
        _, samples = churn_run
        for tick, rows in _rows_by_tick(samples).items():
            assert CONTROLLER_ROW in rows

    def test_file_validates_and_is_deterministic(self, tmp_path):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            obs = ObsOptions(timeseries_out=str(path),
                             timeseries_interval=0.01)
            run_loadgen(CHURN, obs=obs)
            assert validate_artifact(str(path), "timeseries") > 0
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
