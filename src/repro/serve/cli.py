"""``repro-experiments serve`` / ``loadgen`` subcommand implementations.

Both build a :class:`~repro.serve.service.ServeConfig` from flags and
run one live session; they differ in posture.  ``serve`` is the
interactive face — run a session, print a readable per-phase summary
and the adaptation trace.  ``loadgen`` is the soak face — always
instrumented, writes a validatable metrics artifact, prints a
machine-readable JSON summary, and exits non-zero the moment any
attacker content verifies (the ``forged_accepted`` gate).  The named
soaks in :mod:`repro.serve.soak` run the same session in-process.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro.exceptions import ReproError
from repro.serve.loadgen import LoadgenResult, ObsOptions, run_loadgen
from repro.serve.service import ServeConfig

__all__ = ["serve_main", "loadgen_main", "config_from_args",
           "obs_from_args"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return value


def _ramp_step(text: str) -> Tuple[int, float]:
    """Parse a ``BLOCK:RATE`` loss-schedule step."""
    try:
        block_text, rate_text = text.split(":", 1)
        return int(block_text), float(rate_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected BLOCK:RATE (e.g. 20:0.3), got {text!r}")


def _build_parser(prog: str, soak: bool) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Run a live multicast authentication session: an asyncio "
            "sender streams signed blocks to concurrent receivers over "
            "a pluggable transport while an adaptive controller "
            "re-selects scheme parameters from loss feedback."
        ),
    )
    parser.add_argument("--receivers", type=int, default=8, metavar="N",
                        help="concurrent receiver sessions (default 8)")
    parser.add_argument("--blocks", type=int, default=20, metavar="N",
                        help="blocks to stream (default 20)")
    parser.add_argument("--block-size", type=int, default=12, metavar="N",
                        help="payloads per block (default 12)")
    parser.add_argument("--payload-size", type=int, default=32, metavar="B",
                        help="payload bytes (default 32)")
    parser.add_argument("--loss", type=float, default=0.05, metavar="P",
                        help="channel loss rate from block 0 (default 0.05)")
    parser.add_argument("--ramp", type=_ramp_step, action="append",
                        default=[], metavar="BLOCK:RATE",
                        help="add a loss-schedule step (repeatable), "
                             "e.g. --ramp 20:0.3")
    parser.add_argument("--attack", default=None, metavar="MIX",
                        help="adversarial mix on every channel "
                             "(pollution, dos or storm; default none)")
    parser.add_argument("--churn", default=None, metavar="SPEC",
                        help="dynamic membership: late joins, graceful "
                             "leaves and mid-block crashes from a seeded "
                             "plan (storm[:J,L,C], flood:BLOCK or "
                             "flap:COUNT; default none)")
    parser.add_argument("--topology", default="star", metavar="SPEC",
                        help="distribution tree to stream over: star "
                             "(one independent channel per receiver), "
                             "spine:<groups> or dualspine:<groups> "
                             "(correlated per-link loss; default star)")
    parser.add_argument("--trees", type=_positive_int, default=1,
                        metavar="K",
                        help="redundant edge-disjoint-biased trees per "
                             "packet, deduplicated at the receiver "
                             "(default 1)")
    parser.add_argument("--subtree-adaptive", action="store_true",
                        dest="subtree_adaptive",
                        help="key the adaptive controller by subtree: "
                             "one design per subtree instead of "
                             "pool-wide (composes with --batch-size)")
    parser.add_argument("--design-table", default=None, metavar="FILE",
                        dest="design_table",
                        help="serve scheme selections from a precomputed "
                             "design table (see 'repro-experiments "
                             "design-table build') instead of running "
                             "the optimizer inline; uncovered points "
                             "still fall back inline, counted")
    parser.add_argument("--scheme-family", choices=("emss", "ac"),
                        default="emss", dest="scheme_family",
                        help="scheme family the controller designs "
                             "within (default emss)")
    parser.add_argument("--transport", choices=("local", "udp"),
                        default="local",
                        help="delivery fabric (default local: in-process, "
                             "deterministic virtual time)")
    parser.add_argument("--seed", type=int, default=7, metavar="S",
                        help="root of the deterministic seed tree")
    parser.add_argument("--queue-size", type=int, default=256, metavar="N",
                        help="per-receiver transport queue capacity")
    parser.add_argument("--q-min", type=float, default=0.75, metavar="Q",
                        dest="q_min_target",
                        help="authentication-probability target the "
                             "controller designs for (default 0.75)")
    parser.add_argument("--no-adaptive", action="store_true",
                        help="freeze the initial scheme parameters")
    parser.add_argument("--batch-size", type=_positive_int, default=1,
                        metavar="N",
                        help="blocks amortized per root signature: sign "
                             "one Merkle root over N blocks and attach "
                             "per-block proofs (default 1: sign every "
                             "block)")
    parser.add_argument("--flush-deadline", type=float, default=None,
                        metavar="S", dest="flush_deadline",
                        help="flush a partial batch once its oldest "
                             "block has waited S virtual seconds "
                             "(default: only full batches flush early)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        dest="timeout_s",
                        help="abort the session after S seconds")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the run manifest + metrics snapshot "
                             "as JSON to FILE" +
                             ("" if not soak else
                              " (validates with the standard schema)"))
    obs = parser.add_argument_group(
        "observability outputs",
        "deterministic artifacts: identical configs emit identical bytes")
    obs.add_argument("--lifecycle-out", metavar="FILE", default=None,
                     help="write per-packet lifecycle traces as JSON "
                          "lines (sign/frame/enqueue/transport/ingest/"
                          "verify)")
    obs.add_argument("--timeseries-out", metavar="FILE", default=None,
                     help="write per-receiver gauges on a fixed "
                          "virtual-time grid as JSON lines")
    obs.add_argument("--prom-out", metavar="FILE", default=None,
                     help="write a Prometheus text-format snapshot of "
                          "the run's metrics and final gauges")
    obs.add_argument("--perfetto-out", metavar="FILE", default=None,
                     help="write a Chrome trace-event JSON loadable in "
                          "Perfetto / chrome://tracing")
    obs.add_argument("--trace-sample", type=_positive_int, default=1,
                     metavar="N",
                     help="keep 1/N of the lifecycle traces, selected "
                          "deterministically by trace-ID hash "
                          "(default 1: keep all)")
    obs.add_argument("--timeseries-interval", type=float, default=0.05,
                     metavar="S",
                     help="virtual seconds between timeseries ticks "
                          "(default 0.05)")
    health = parser.add_argument_group(
        "online health plane",
        "streaming SLO monitors, envelope-drift detection and soundness "
        "sentinels evaluated at block boundaries; alerts are "
        "deterministic and byte-identical across reruns")
    health.add_argument("--alerts-out", metavar="FILE", default=None,
                        dest="alerts_out",
                        help="write health alerts as canonical JSON "
                             "lines (implies --health)")
    health.add_argument("--slo", metavar="SPEC", default=None,
                        help="SLO spec 'q:<target>[:<deficit>]' — monitor "
                             "per-receiver verified fraction against "
                             "<target> with a CUSUM that fires after "
                             "<deficit> cumulative packet shortfall "
                             "(default: the --q-min target, deficit 24; "
                             "implies --health)")
    health.add_argument("--health", action="store_true",
                        help="run the health monitors even without an "
                             "alerts file (alerts land in the summary, "
                             "manifest and Prometheus/Perfetto outputs)")
    health.add_argument("--strict-health", action="store_true",
                        dest="strict_health",
                        help="also exit non-zero (status 3) when "
                             "warning-severity alerts fired")
    if not soak:
        parser.add_argument("--json", action="store_true", dest="as_json",
                            help="emit the session summary as JSON")
    return parser


def config_from_args(args: argparse.Namespace) -> ServeConfig:
    """Translate parsed flags into a :class:`ServeConfig`."""
    schedule = [(0, args.loss)]
    for block_id, rate in sorted(args.ramp):
        if block_id == 0:
            schedule[0] = (0, rate)
        else:
            schedule.append((block_id, rate))
    return ServeConfig(
        receivers=args.receivers,
        blocks=args.blocks,
        block_size=args.block_size,
        payload_size=args.payload_size,
        loss_schedule=tuple(schedule),
        attack=args.attack,
        q_min_target=args.q_min_target,
        seed=args.seed,
        queue_size=args.queue_size,
        transport=args.transport,
        adaptive=not args.no_adaptive,
        timeout_s=args.timeout_s,
        batch_size=args.batch_size,
        flush_deadline=args.flush_deadline,
        topology=args.topology,
        trees=args.trees,
        subtree_adaptive=args.subtree_adaptive,
        churn=args.churn,
        design_table=args.design_table,
        scheme_family=args.scheme_family,
    )


def obs_from_args(args: argparse.Namespace) -> Optional[ObsOptions]:
    """Translate observability flags; ``None`` when nothing is requested."""
    if not (args.lifecycle_out or args.timeseries_out or args.prom_out
            or args.perfetto_out or args.alerts_out or args.slo
            or args.health):
        return None
    return ObsOptions(
        lifecycle_out=args.lifecycle_out,
        timeseries_out=args.timeseries_out,
        prom_out=args.prom_out,
        perfetto_out=args.perfetto_out,
        trace_sample=args.trace_sample,
        timeseries_interval=args.timeseries_interval,
        alerts_out=args.alerts_out,
        slo=args.slo,
        health=args.health,
    )


def _render_summary(summary: dict) -> str:
    lines = [
        f"live session: {summary['blocks']} blocks -> "
        f"{summary['receivers']} receivers over {summary['transport']}"
        + (f" under '{summary['attack']}' attack" if summary["attack"]
           else ""),
        f"  delivered payloads : {summary['delivered']}",
        f"  queue drops        : {summary['queue_drops']}",
        f"  forged accepted    : {summary['forged_accepted']}"
        + ("  (SOUNDNESS VIOLATION)" if summary["forged_accepted"] else ""),
        f"  schemes used       : {', '.join(summary['schemes_used'])}",
        f"  switches at blocks : "
        + (", ".join(str(b) for b in summary["adaptation_switches"])
           or "none"),
    ]
    for phase in summary["phases"]:
        q_min = phase["q_min"]
        q_text = "n/a" if q_min is None else f"{q_min:.4f}"
        lines.append(f"  {phase['phase']:<24} received={phase['received']:<6}"
                     f" q_min={q_text}")
    return "\n".join(lines)


def serve_main(argv: Optional[List[str]] = None) -> int:
    """``repro-experiments serve`` — run one session, print a summary."""
    args = _build_parser("repro-experiments serve", soak=False).parse_args(
        argv)
    try:
        config = config_from_args(args)
        result = run_loadgen(config, obs=obs_from_args(args))
    except ReproError as error:
        print(str(error), file=sys.stderr)
        return 2
    session, summary = result.session, result.summary
    if args.metrics_out:
        _write_metrics(args.metrics_out, result.metrics_payload)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if args.as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(_render_summary(summary))
    if session.forged_accepted != 0:
        return 1
    return _health_exit(result, args.strict_health)


def loadgen_main(argv: Optional[List[str]] = None) -> int:
    """``repro-experiments loadgen`` — instrumented soak with a gate."""
    args = _build_parser("repro-experiments loadgen", soak=True).parse_args(
        argv)
    try:
        config = config_from_args(args)
        result = run_loadgen(config, obs=obs_from_args(args))
    except ReproError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.metrics_out:
        _write_metrics(args.metrics_out, result.metrics_payload)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    print(json.dumps(result.summary, indent=2, sort_keys=True))
    if not result.ok:
        print(f"FAIL: forged_accepted="
              f"{result.session.forged_accepted} (must be 0)",
              file=sys.stderr)
        return 1
    return _health_exit(result, args.strict_health)


def _health_exit(result: LoadgenResult, strict: bool) -> int:
    """Exit status from the health plane: 0 ok, 1 critical, 3 strict."""
    if result.critical_alerts:
        print(f"FAIL: {result.critical_alerts} critical health alert(s)",
              file=sys.stderr)
        return 1
    if strict and result.warning_alerts:
        print(f"FAIL (strict-health): {result.warning_alerts} warning "
              f"health alert(s)", file=sys.stderr)
        return 3
    return 0


def _write_metrics(path: str, payload: dict) -> None:
    from repro.obs import write_json_file

    write_json_file(path, payload)
