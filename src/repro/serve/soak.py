"""Named live-session soaks: one table of configs, one driver.

Each row of :data:`SOAKS` fixes four things: a
:class:`~repro.serve.service.ServeConfig`, the
:class:`~repro.serve.loadgen.ObsOptions` artifacts it writes (file
names relative to the run directory), an optional design
:class:`~repro.design.TableSpec` the session serves from, and the
row's own named checks.  :func:`run_soak` treats every row alike:

1. build the row's design table at workers 1 and 2 and compare the
   bytes;
2. run :func:`~repro.serve.loadgen.run_loadgen` twice, into ``a/`` and
   ``b/`` under the run directory;
3. write and validate each pass's metrics file and JSON-lines
   artifacts;
4. compare every artifact and the summary JSON byte for byte across
   the passes (the metrics files carry wall-clock fields, so they are
   validated but not compared);
5. fail on ``forged_accepted != 0`` or on any critical alert;
6. apply the row's checks to the first pass.

Run one row with ``python -m repro.serve.soak NAME --out DIR``; it
exits non-zero naming every failed check.  A row is named, never
tuned: the entry takes no other options.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.design import DesignTable, TableSpec
from repro.exceptions import ReproError
from repro.obs import validate_artifact, write_json_file
from repro.obs.manifest import validate_metrics_file
from repro.serve.loadgen import ObsOptions, run_loadgen
from repro.serve.service import ServeConfig

__all__ = ["Soak", "SoakRun", "SOAKS", "run_soak", "main"]

#: ``ObsOptions`` file fields, with the artifact kind of the JSON-lines
#: ones (``None``: compared across passes, not schema-validated).
_OUTPUTS = (
    ("lifecycle_out", "lifecycle"),
    ("timeseries_out", "timeseries"),
    ("alerts_out", "alerts"),
    ("perfetto_out", None),
    ("prom_out", None),
)
_SUMMARY = "summary.json"
_METRICS = "metrics.json"


def _files(obs: ObsOptions) -> List[Tuple[str, str, Optional[str]]]:
    """``(field, file name, artifact kind)`` of each output ``obs`` sets."""
    return [(field, getattr(obs, field), kind) for field, kind in _OUTPUTS
            if getattr(obs, field) is not None]


@dataclass
class SoakRun:
    """One pass of a soak, as a row's checks see it."""

    directory: str
    summary: Dict[str, object]
    payload: dict
    table_path: Optional[str] = None

    @property
    def manifest(self) -> dict:
        return self.payload["runs"][0]["manifest"]

    @property
    def params(self) -> dict:
        return self.manifest["parameters"]

    @property
    def counts(self) -> dict:
        return self.manifest["trial_counts"]

    @property
    def counters(self) -> dict:
        return self.payload["runs"][0]["metrics"]["counters"]

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def read(self, name: str) -> bytes:
        with open(self.path(name), "rb") as handle:
            return handle.read()


#: A named predicate over the first pass; falsy or raising fails it.
Check = Tuple[str, Callable[[SoakRun], object]]


@dataclass(frozen=True)
class Soak:
    """One row of the table: what runs, what it writes, what must hold."""

    config: ServeConfig
    obs: ObsOptions = ObsOptions()
    table: Optional[TableSpec] = None
    checks: Tuple[Check, ...] = ()


def _count(key: str, value: int) -> Check:
    return f"{key} == {value}", lambda run: run.counts[key] == value


def _adapted(run: SoakRun) -> bool:
    return any(event["switched"] for event in run.params["adaptation"])


def _perfetto_balanced(run: SoakRun) -> bool:
    events = json.loads(run.read("perfetto-trace.json"))["traceEvents"]
    begins = sum(event["ph"] == "B" for event in events)
    ends = sum(event["ph"] == "E" for event in events)
    return begins == ends > 0


def _membership_counters_match(run: SoakRun) -> bool:
    counts = run.params["membership"]["counts"]
    return sum(counts.values()) > 0 and all(
        run.counters[f"serve.membership.{kind}"] == total
        for kind, total in counts.items() if total)


def _table_show(run: SoakRun) -> bool:
    from repro.cli import main as repro_main

    return repro_main(["design-table", "show", run.table_path]) == 0


#: The soak every 64-receiver pollution row starts from.
_POLLUTION_64 = ServeConfig(
    receivers=64, blocks=40, block_size=12,
    loss_schedule=((0, 0.05), (20, 0.3)), attack="pollution", seed=2003,
    timeout_s=60.0)
_TRACED = ObsOptions(lifecycle_out="lifecycle.jsonl", trace_sample=4,
                     timeseries_out="timeseries.jsonl")
_NARROW_TABLE = TableSpec(p_grid=(0.01, 0.05, 0.1, 0.25),
                          families=("emss",))
_HEALTH_16 = ServeConfig(
    receivers=16, blocks=40, block_size=12, seed=2003, timeout_s=60.0)

SOAKS: Dict[str, Soak] = {
    "serve": Soak(
        config=_POLLUTION_64,
        obs=replace(_TRACED, perfetto_out="perfetto-trace.json",
                    prom_out="metrics.prom"),
        checks=(
            _count("serve.receiver.sessions", 64),
            _count("serve.block.runs", 40),
            ("controller adapted", _adapted),
            ("lifecycle sample == 4", lambda run:
             run.params["observability"]["lifecycle"]["sample"] == 4),
            ("lifecycle events == summary lifecycle_events", lambda run:
             validate_artifact(run.path("lifecycle.jsonl"), "lifecycle")
             == run.summary["lifecycle_events"]),
            ("Perfetto B == E > 0", _perfetto_balanced),
            ("Prometheus file has # TYPE", lambda run:
             b"# TYPE" in run.read("metrics.prom")),
        )),
    "trace-determinism": Soak(
        config=ServeConfig(
            receivers=4, blocks=10, block_size=8,
            loss_schedule=((0, 0.05), (5, 0.3)), attack="pollution",
            seed=2003),
        obs=ObsOptions(lifecycle_out="lifecycle.jsonl",
                       timeseries_out="timeseries.jsonl",
                       perfetto_out="perfetto-trace.json")),
    "batch": Soak(
        config=replace(_POLLUTION_64, batch_size=8, flush_deadline=0.5),
        obs=_TRACED,
        checks=(
            ("batch_size == 8", lambda run: run.params["batch_size"] == 8),
            ("1 <= serve.batch.signs <= 40 // 8", lambda run:
             1 <= run.counters["serve.batch.signs"] <= 40 // 8),
            ("serve.batch.flushes == serve.batch.signs", lambda run:
             run.counters["serve.batch.flushes"]
             == run.counters["serve.batch.signs"]),
            _count("serve.receiver.sessions", 64),
            _count("serve.block.runs", 40),
        )),
    "batch-subtree-churn": Soak(
        config=replace(
            _POLLUTION_64, receivers=16, blocks=24,
            loss_schedule=((0, 0.05), (12, 0.3)), topology="spine:4",
            subtree_adaptive=True, churn="storm", batch_size=8,
            flush_deadline=0.5),
        obs=_TRACED,
        checks=(
            ("summary subtree_adaptive", lambda run:
             run.summary["subtree_adaptive"] is True),
        )),
    "topology": Soak(
        config=replace(
            _POLLUTION_64, blocks=24,
            loss_schedule=((0, 0.1), (12, 0.25)), topology="dualspine:4",
            trees=2, timeout_s=120.0),
        obs=_TRACED,
        checks=(
            ("topology == dualspine:4", lambda run:
             run.params["topology"] == "dualspine:4"),
            ("trees == 2", lambda run: run.params["trees"] == 2),
            ("topology leaves == 64", lambda run:
             run.params["topology_detail"]["leaves"] == 64),
            _count("serve.receiver.sessions", 64),
            _count("serve.block.runs", 24),
            ("duplicates_suppressed > 0", lambda run:
             run.summary["duplicates_suppressed"] > 0),
        )),
    "churn": Soak(
        config=replace(_POLLUTION_64, blocks=24,
                       loss_schedule=((0, 0.1),), churn="storm"),
        obs=_TRACED,
        checks=(
            ("churn == storm", lambda run: run.params["churn"] == "storm"),
            ("membership universe == 128", lambda run:
             run.params["membership"]["universe"] == 128),
            ("membership initial == 64", lambda run:
             run.params["membership"]["initial"] == 64),
            ("membership counts match serve.membership.* counters",
             _membership_counters_match),
            ("summary membership_counts == manifest counts", lambda run:
             run.summary["membership_counts"]
             == run.params["membership"]["counts"]),
            ("final_active >= 1", lambda run:
             run.summary["final_active"] >= 1),
        )),
    "design": Soak(
        config=_POLLUTION_64,
        table=TableSpec(families=("emss", "ac", "offset")),
        checks=(
            ("design_table is the built table", lambda run:
             run.params["design_table"] == run.table_path),
            ("lookup_hits > 0", lambda run:
             run.params["design_table_detail"]["lookup_hits"] > 0),
            ("lookup_misses == 0", lambda run:
             run.params["design_table_detail"]["lookup_misses"] == 0),
            ("design.inline.calls == 0", lambda run:
             run.counters.get("design.inline.calls", 0) == 0),
            ("design.service.fallbacks == 0", lambda run:
             run.counters.get("design.service.fallbacks", 0) == 0),
            ("design.service.hits == design.service.lookups", lambda run:
             run.counters["design.service.hits"]
             == run.counters["design.service.lookups"]),
            ("design.service.lookups > 0", lambda run:
             run.counts["design.service.lookups"] > 0),
            ("controller adapted", _adapted),
            ("design-table show", _table_show),
        )),
    "health-ramp": Soak(
        config=replace(_HEALTH_16, loss_schedule=((0, 0.05), (20, 0.35)),
                       attack="pollution"),
        obs=ObsOptions(alerts_out="alerts.jsonl", slo="q:0.9"),
        table=_NARROW_TABLE,
        checks=(
            ("off-lattice alert", lambda run:
             run.summary["health"]["kinds"].get("off-lattice", 0) >= 1),
            ("slo-breach alert", lambda run:
             run.summary["health"]["kinds"].get("slo-breach", 0) >= 1),
            ("summary refresh_requests >= 1", lambda run:
             run.summary["health"]["refresh_requests"] >= 1),
            ("design.refresh.requests >= 1", lambda run:
             run.counters.get("design.refresh.requests", 0) >= 1),
            ("manifest alerts == alert lines", lambda run:
             len(run.params["health"]["alerts"])
             == validate_artifact(run.path("alerts.jsonl"), "alerts")),
        )),
    "health-clean": Soak(
        config=replace(_HEALTH_16, loss_schedule=((0, 0.05), (20, 0.2))),
        obs=ObsOptions(health=True),
        table=_NARROW_TABLE,
        checks=(
            ("worst_severity is None", lambda run:
             run.summary["health"]["worst_severity"] is None),
            ("refresh_requests == 0", lambda run:
             run.summary["health"]["refresh_requests"] == 0),
        )),
}


def _run_pass(config: ServeConfig, obs: ObsOptions, out_dir: str, tag: str,
              table_path: Optional[str], fail: Callable[[str], None]
              ) -> SoakRun:
    """One ``run_loadgen`` pass into ``out_dir/tag``, files validated."""
    directory = os.path.join(out_dir, tag)
    os.makedirs(directory, exist_ok=True)
    result = run_loadgen(config, obs=replace(obs, **{
        field: os.path.join(directory, name)
        for field, name, _ in _files(obs)}))
    write_json_file(os.path.join(directory, _SUMMARY), result.summary)
    write_json_file(os.path.join(directory, _METRICS), result.metrics_payload)
    validators = [(_METRICS, validate_metrics_file)] + [
        (name, partial(validate_artifact, kind=kind))
        for _, name, kind in _files(obs) if kind is not None]
    for name, validate in validators:
        try:
            validate(os.path.join(directory, name))
        except ReproError as error:
            fail(f"pass {tag}: {name} invalid: {error}")
    return SoakRun(directory, result.summary, result.metrics_payload,
                   table_path)


def run_soak(name: str, out_dir: str) -> List[str]:
    """Run soak ``name`` into ``out_dir``; returns the failed checks.

    Each failure reads ``"<row>: <check>"``; an empty list is a pass.
    """
    soak = SOAKS[name]
    failures: List[str] = []

    def fail(check: str) -> None:
        failures.append(f"{name}: {check}")

    os.makedirs(out_dir, exist_ok=True)
    config, table_path = soak.config, None
    if soak.table is not None:
        w1, w2 = (DesignTable.build(soak.table, workers=workers).to_bytes()
                  for workers in (1, 2))
        if w1 != w2:
            fail("design table bytes differ at workers 1 and 2")
        table_path = os.path.join(out_dir, "design-table.json")
        with open(table_path, "wb") as handle:
            handle.write(w1)
        config = replace(config, design_table=table_path)
    runs = [_run_pass(config, soak.obs, out_dir, tag, table_path, fail)
            for tag in ("a", "b")]
    for artifact in [_SUMMARY] + [name for _, name, _ in _files(soak.obs)]:
        if runs[0].read(artifact) != runs[1].read(artifact):
            fail(f"{artifact} differs between passes a and b")
    for tag, run in zip(("a", "b"), runs):
        forged = run.summary["forged_accepted"]
        if forged != 0:
            fail(f"pass {tag}: forged_accepted == {forged} (must be 0)")
        health = run.summary.get("health")
        if health is not None and health["alerts"]["critical"]:
            fail(f"pass {tag}: {health['alerts']['critical']} critical "
                 f"alert(s)")
    for check_name, check in soak.checks:
        try:
            passed = check(runs[0])
        except Exception as error:  # a broken check fails, named
            fail(f"{check_name} raised {error!r}")
            continue
        if not passed:
            fail(check_name)
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.serve.soak NAME --out DIR``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.soak",
        description=(
            "Run one named live-session soak twice, compare its "
            "artifacts byte for byte and apply the row's checks."))
    parser.add_argument("name", choices=sorted(SOAKS), metavar="NAME",
                        help=f"soak row: {', '.join(sorted(SOAKS))}")
    parser.add_argument("--out", required=True, metavar="DIR",
                        help="run directory for the artifacts")
    args = parser.parse_args(argv)
    try:
        failures = run_soak(args.name, args.out)
    except ReproError as error:
        failures = [f"{args.name}: run raised {error}"]
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"soak {args.name} OK: artifacts in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
