"""Command-line entry point: run the paper's experiments from a shell.

Installed as ``repro-experiments``::

    repro-experiments --list
    repro-experiments fig8 fig9
    repro-experiments --all --fast
    repro-experiments fig10 --json > fig10.json
    repro-experiments fig9 --metrics-out metrics.json --profile
    repro-experiments fig8 --trace-out trace.jsonl
    repro-experiments bench-report .benchmarks --out BENCH_today.json
    repro-experiments bench-diff BENCH_BASELINE.json BENCH_today.json
    repro-experiments design-table build --out table.json --workers 4
    repro-experiments design-table show table.json
    repro-experiments serve --receivers 8 --ramp 20:0.3 --attack pollution
    repro-experiments loadgen --receivers 64 --attack pollution \
        --metrics-out soak.json --lifecycle-out lifecycle.jsonl

Observability flags (see ``docs/observability.md``): ``--metrics-out``
writes one run manifest + metrics snapshot per experiment,
``--trace-out`` streams span begin/end records as JSON lines, and
``--profile`` prints the top cumulative spans after the run.  All
three are bit-for-bit neutral: results are identical with or without
them.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import ExperimentResult

__all__ = ["main", "result_to_dict"]

PROFILE_TOP = 12


def result_to_dict(result: ExperimentResult) -> dict:
    """JSON-serializable view of an experiment result."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "rows": result.rows,
        "series": {
            label: {"x": list(series.x), "y": list(series.y)}
            for label, series in result.series.items()
        },
        "notes": result.notes,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the figures and tables of 'A graph-theoretical "
            "analysis of multicast authentication' (ICDCS 2003)."
        ),
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (see --list), or the "
                             "'bench-report', 'bench-diff', 'design-table', "
                             "'serve' and 'loadgen' subcommands")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--fast", action="store_true",
                        help="reduced sweep resolution")
    parser.add_argument("--list", action="store_true", dest="list_only",
                        help="list experiment ids and exit")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit results as a JSON array")
    parser.add_argument("--report", metavar="PATH", dest="report_path",
                        help="write a full markdown report to PATH")
    parser.add_argument("--workers", type=int, metavar="N", default=None,
                        help=(
                            "process-pool size for Monte-Carlo sweeps "
                            "(default: all CPUs, or $REPRO_WORKERS; 1 = "
                            "serial, identical output for any value)"
                        ))
    parser.add_argument("--attack", metavar="MIXES", default=None,
                        help=(
                            "comma-separated attack mixes for the "
                            "adversarial experiment (known: pollution, dos; "
                            "default: all) — e.g. --attack pollution"
                        ))
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help=(
                            "write per-experiment run manifests and metric "
                            "snapshots (counters, span timings, histograms) "
                            "as JSON to FILE"
                        ))
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="stream span begin/end records to FILE as "
                             "JSON lines")
    parser.add_argument("--profile", action="store_true",
                        help=f"print the top {PROFILE_TOP} cumulative spans "
                             "after the run")
    return parser


def _build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments bench-report",
        description=(
            "Fold pytest-benchmark JSON output (from 'pytest benchmarks/ "
            "--benchmark-autosave' or --benchmark-json) into a single "
            "BENCH_<date>.json trajectory file."
        ),
    )
    parser.add_argument("directory", nargs="?", default=".benchmarks",
                        help="directory holding pytest-benchmark JSON "
                             "files (default: .benchmarks)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="output path (default: BENCH_<date>.json)")
    return parser


def _bench_report_main(argv: List[str]) -> int:
    from repro.exceptions import AnalysisError
    from repro.obs.bench import write_bench_report

    args = _build_bench_parser().parse_args(argv)
    try:
        out_path = write_bench_report(args.directory, args.out)
    except AnalysisError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(f"benchmark trajectory written to {out_path}")
    return 0


def _build_bench_diff_parser() -> argparse.ArgumentParser:
    from repro.obs.bench import DEFAULT_REGRESSION_THRESHOLD

    parser = argparse.ArgumentParser(
        prog="repro-experiments bench-diff",
        description=(
            "Compare two bench-report trajectory files and exit non-zero "
            "when any benchmark regressed beyond the threshold — the CI "
            "performance gate."
        ),
    )
    parser.add_argument("baseline", help="baseline bench-report JSON "
                                         "(e.g. BENCH_BASELINE.json)")
    parser.add_argument("current", help="bench-report JSON to judge")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_REGRESSION_THRESHOLD, metavar="F",
                        help="allowed fractional slowdown before a "
                             "benchmark counts as regressed (default "
                             f"{DEFAULT_REGRESSION_THRESHOLD:g} = "
                             f"{DEFAULT_REGRESSION_THRESHOLD:.0%})")
    parser.add_argument("--metric", choices=("min", "mean"), default="min",
                        help="headline stat to compare (default min: "
                             "noise-robust)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the full diff as JSON")
    parser.add_argument("--fail-on-missing", action="store_true",
                        dest="fail_on_missing",
                        help="also exit non-zero when a baseline "
                             "benchmark is absent from the current "
                             "report (a silently-dropped benchmark "
                             "cannot regress)")
    return parser


def _bench_diff_main(argv: List[str]) -> int:
    from repro.exceptions import AnalysisError
    from repro.obs.bench import diff_bench_reports, load_bench_report

    args = _build_bench_diff_parser().parse_args(argv)
    try:
        baseline = load_bench_report(args.baseline)
        current = load_bench_report(args.current)
        diff = diff_bench_reports(baseline, current,
                                  threshold=args.threshold,
                                  metric=f"{args.metric}_s")
    except AnalysisError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(f"compared {len(diff['compared'])} benchmarks on "
              f"{diff['metric']} (threshold {diff['threshold']:.0%})")
        for row in diff["compared"]:
            marker = " "
            if row in diff["regressions"]:
                marker = "!"
            elif row in diff["improvements"]:
                marker = "+"
            print(f"  {marker} {row['name']}: {row['baseline_s']:.6g}s -> "
                  f"{row['current_s']:.6g}s (x{row['ratio']:.2f})")
        for name in diff["missing"]:
            print(f"  ? missing from current: {name}")
        for name in diff["added"]:
            print(f"  * new benchmark: {name}")
    failed = False
    if diff["regressions"]:
        print(f"FAIL: {len(diff['regressions'])} benchmark(s) regressed "
              f"beyond {diff['threshold']:.0%}", file=sys.stderr)
        failed = True
    if args.fail_on_missing and diff["missing"]:
        print(f"FAIL: {len(diff['missing'])} baseline benchmark(s) "
              f"missing from current report: "
              f"{', '.join(diff['missing'])}", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("no regressions beyond threshold", file=sys.stderr)
    return 0


def _axis_text(axis: tuple) -> str:
    return ",".join(str(value) for value in axis)


def _build_design_table_parser() -> argparse.ArgumentParser:
    from repro.design import TableSpec

    spec = TableSpec()
    parser = argparse.ArgumentParser(
        prog="repro-experiments design-table",
        description=(
            "Build and inspect precomputed design tables: the whole "
            "(p x n x q_target x delay) lattice evaluated offline so "
            "the live control plane answers scheme selection with an "
            "O(1) lookup (see docs/design_service.md)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser(
        "build", help="evaluate the lattice and write a table file")
    build.add_argument("--out", metavar="FILE", default="design_table.json",
                       help="output path (default design_table.json)")
    build.add_argument("--p-grid", metavar="P[,P...]", default=None,
                       help="comma-separated loss-rate grid (default: the "
                            "controller grid)")
    build.add_argument("--block-sizes", metavar="N[,N...]", default=None,
                       help="comma-separated block sizes (default "
                            f"{_axis_text(spec.block_sizes)})")
    build.add_argument("--q-targets", metavar="Q[,Q...]", default=None,
                       help="comma-separated q_min targets (default "
                            f"{_axis_text(spec.q_targets)})")
    build.add_argument("--delay-budgets", metavar="D[,D...]", default=None,
                       help="comma-separated delay budgets in packet "
                            "slots (default: the controller budget)")
    build.add_argument("--families", metavar="F[,F...]", default=None,
                       help="comma-separated design families (default "
                            f"{_axis_text(spec.families)})")
    build.add_argument("--seed", type=int, default=None, metavar="S",
                       help="seed-tree root for the sampled families "
                            f"(default {spec.seed})")
    build.add_argument("--mc-trials", type=int, default=None, metavar="N",
                       dest="mc_trials",
                       help="Monte Carlo trials per sampled-family cell "
                            f"(default {spec.mc_trials})")
    build.add_argument("--workers", type=int, default=None, metavar="N",
                       help="process-pool size (default: all CPUs; "
                            "output is byte-identical for any value)")

    show = commands.add_parser(
        "show", help="validate a table file and print its summary")
    show.add_argument("table", help="design-table JSON file to inspect")
    show.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the summary as JSON")
    return parser


def _parse_axis(text: str, caster) -> tuple:
    return tuple(caster(part.strip())
                 for part in text.split(",") if part.strip())


#: ``design-table build`` flags that set one ``TableSpec`` axis each,
#: with the type of one axis value.
_TABLE_AXES = (("p_grid", float), ("block_sizes", int), ("q_targets", float),
               ("delay_budgets", int), ("families", str))


def _table_spec(args: argparse.Namespace):
    """The ``TableSpec`` of ``design-table build``: unset flags keep
    ``TableSpec``'s defaults, the controller's own lattice."""
    from repro.design import TableSpec

    fields = {name: _parse_axis(getattr(args, name), caster)
              for name, caster in _TABLE_AXES
              if getattr(args, name) is not None}
    for name in ("seed", "mc_trials"):
        if getattr(args, name) is not None:
            fields[name] = getattr(args, name)
    return TableSpec(**fields)


def _design_table_main(argv: List[str]) -> int:
    from repro.design import DesignTable
    from repro.exceptions import ReproError

    args = _build_design_table_parser().parse_args(argv)
    try:
        if args.command == "build":
            spec = _table_spec(args)
            table = DesignTable.build(spec, workers=args.workers)
            table.save(args.out)
            print(f"design table written to {args.out}: "
                  f"{len(table.cells)} cells "
                  f"({table.feasible_count()} feasible), "
                  f"hash {table.content_hash}")
            return 0
        table = DesignTable.load(args.table)
        summary = table.describe()
        if args.as_json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(f"design table {args.table}: schema "
                  f"v{summary['schema_version']}, "
                  f"hash {summary['content_hash']}")
            print(f"  cells    : {summary['cells']} "
                  f"({summary['feasible']} feasible)")
            for family, stats in summary["families"].items():
                print(f"  {family:<9}: {stats['feasible']}/"
                      f"{stats['cells']} feasible")
            spec = summary["spec"]
            print(f"  p_grid   : {', '.join(str(p) for p in spec['p_grid'])}")
            print(f"  n        : "
                  f"{', '.join(str(n) for n in spec['block_sizes'])}")
            print(f"  q targets: "
                  f"{', '.join(str(q) for q in spec['q_targets'])}")
            print(f"  delay    : "
                  f"{', '.join(str(d) for d in spec['delay_budgets'])}")
        return 0
    except (ReproError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2


def _run_one(experiment_id: str, fast: bool, workers: int,
             collect: Optional[list]) -> ExperimentResult:
    """Run one experiment, instrumented when ``collect`` is a list.

    With instrumentation on, the experiment runs under a fresh registry
    and appends ``{"manifest", "metrics"}`` to ``collect``; disabled
    runs skip every observability code path (null-registry fast path).
    """
    if collect is None:
        return ALL_EXPERIMENTS[experiment_id](fast=fast)

    from repro.obs import (MetricsRegistry, RunManifest, set_registry, span)

    registry = MetricsRegistry()
    clock = RunManifest.start("experiment", experiment_id,
                              parameters={"fast": fast}, workers=workers)
    previous = set_registry(registry)
    try:
        with span(f"experiment.{experiment_id}"):
            result = ALL_EXPERIMENTS[experiment_id](fast=fast)
    finally:
        set_registry(previous)
    manifest = clock.finish(registry)
    collect.append({"manifest": manifest.to_dict(),
                    "metrics": registry.snapshot()})
    return result


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    raw_argv = list(sys.argv[1:]) if argv is None else list(argv)
    if raw_argv and raw_argv[0] == "bench-report":
        return _bench_report_main(raw_argv[1:])
    if raw_argv and raw_argv[0] == "bench-diff":
        return _bench_diff_main(raw_argv[1:])
    if raw_argv and raw_argv[0] == "design-table":
        return _design_table_main(raw_argv[1:])
    if raw_argv and raw_argv[0] == "serve":
        from repro.serve.cli import serve_main

        return serve_main(raw_argv[1:])
    if raw_argv and raw_argv[0] == "loadgen":
        from repro.serve.cli import loadgen_main

        return loadgen_main(raw_argv[1:])
    args = _build_parser().parse_args(raw_argv)
    from repro.exceptions import AnalysisError
    from repro.parallel import resolve_workers, set_default_workers

    try:
        workers = resolve_workers(args.workers)  # validates flag and env
    except AnalysisError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.workers is not None:
        set_default_workers(args.workers)
    if args.attack is not None:
        from repro.faults import set_default_attack

        try:
            set_default_attack(
                [m.strip() for m in args.attack.split(",") if m.strip()])
        except AnalysisError as error:
            print(str(error), file=sys.stderr)
            return 2
    if args.list_only:
        for experiment_id in ALL_EXPERIMENTS:
            print(experiment_id)
        return 0
    ids = list(ALL_EXPERIMENTS) if args.all else args.experiments
    if not ids:
        print("nothing to run; pass experiment ids or --all (see --list)",
              file=sys.stderr)
        return 2
    unknown = [i for i in ids if i not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2

    instrument = bool(args.metrics_out or args.profile)
    collected: Optional[list] = [] if instrument else None
    trace_sink = None
    if args.trace_out:
        from repro.obs import TraceSink, set_trace_sink

        trace_sink = TraceSink(args.trace_out)
        set_trace_sink(trace_sink)
    try:
        if args.report_path:
            from repro.experiments.report import write_report

            write_report(args.report_path, ALL_EXPERIMENTS, fast=args.fast,
                         only=ids)
            print(f"report written to {args.report_path}")
            return 0
        if args.as_json:
            payload = [
                result_to_dict(_run_one(experiment_id, args.fast, workers,
                                        collected))
                for experiment_id in ids
            ]
            print(json.dumps(payload, indent=2))
        else:
            for experiment_id in ids:
                result = _run_one(experiment_id, args.fast, workers,
                                  collected)
                print(result.render())
                print()
    finally:
        if trace_sink is not None:
            from repro.obs import set_trace_sink

            set_trace_sink(None)
            trace_sink.close()

    if collected is not None:
        from repro.obs import MetricsRegistry, profile_report, write_json_file

        if args.metrics_out:
            write_json_file(args.metrics_out,
                            {"format": 1, "runs": collected})
            print(f"metrics written to {args.metrics_out}", file=sys.stderr)
        if args.profile:
            merged = MetricsRegistry.merge_all(
                MetricsRegistry.from_snapshot(entry["metrics"])
                for entry in collected)
            print(file=sys.stderr)
            print(profile_report(merged, top=PROFILE_TOP), file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
