"""The repository benchmark: five workloads, end-to-end and per-layer metrics.

Run one workload (the form ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload fanout64 --seed 2003 --seconds 10 --trace 0

or every workload, round-robin, saving the results::

    python3 bench/run.py --seed 2003 --out bench-out/a.json
    python3 bench/run.py --seed 2003 --trace --out bench-out/trace.json

and check one saved result set against another under the bounds in
``BENCHMARK.json`` (exit status 1 if any end-to-end metric is worse
than its bound)::

    python3 bench/run.py --compare bench-out/a.json bench-out/b.json

Each workload runs in three rounds, each in a fresh interpreter
(``worker.py``) that sets up, runs one untimed warm-up session, then
times units for a third of ``--seconds``.  With several workloads the
rounds go round-robin over them, so a slow stretch of a shared machine
lands on every workload.  The last line of standard output is one JSON
object; with ``--workload`` it is the result object itself.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import metrics
from metrics import WORKLOADS, BenchError

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / "bench-out"
ROUNDS = 3
#: Wall-clock limit for one workload's three rounds.
WORKLOAD_DEADLINE_S = 170.0


def _events(proc: subprocess.Popen, deadline: float):
    """``(read_time, event)`` for each ``@bench`` line the worker prints.

    Other stdout lines pass through to stderr.  The worker is killed
    if it is still running at ``deadline``.
    """
    fd = proc.stdout.fileno()
    buffer = b""
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            proc.kill()
            raise BenchError("worker ran past its deadline")
        readable, _, _ = select.select([fd], [], [], remaining)
        if not readable:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return
        buffer += chunk
        now = time.perf_counter()
        *lines, buffer = buffer.split(b"\n")
        for line in lines:
            text = line.decode("utf-8", "replace")
            if text.startswith("@bench "):
                yield now, json.loads(text[len("@bench "):])
            else:
                print(text, file=sys.stderr)


def run_round(workload: str, seed: int, budget: float, trace: int,
              spans_path, deadline: float, record: dict) -> None:
    """One worker process; its events are appended to ``record``."""
    command = [sys.executable, str(WORKER), "--workload", workload,
               "--seed", str(seed), "--budget", repr(budget),
               "--trace", str(trace),
               "--first-input", str(len(record["samples"]))]
    if spans_path is not None:
        command += ["--spans", str(spans_path)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, env=env,
                          stdout=subprocess.PIPE) as proc:
        try:
            done = False
            for read_at, event in _events(proc, deadline):
                kind = event.pop("event")
                if kind == "ready":
                    record["setup_s"].append(read_at - started)
                elif kind == "reference":
                    record["slice_us"].append(event["slice_us"])
                elif kind == "sample":
                    record["samples"].append(event)
                elif kind == "traced":
                    record["missing"].update(event.pop("missing", ()))
                    record["traced"].append(event)
                elif kind == "done":
                    record["peak_rss_kb"].append(event["peak_rss_kb"])
                    done = True
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0 or not done:
        raise BenchError(f"{workload} worker exited with status "
                         f"{proc.returncode}")


def measure(workloads: List[str], seed: int, seconds: float,
            trace: int) -> Dict[str, dict]:
    """Run every round of every workload; raw records by workload."""
    records = {w: {"setup_s": [], "slice_us": [], "samples": [],
                   "traced": [], "peak_rss_kb": [], "missing": set()}
               for w in workloads}
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
    deadline = time.perf_counter() + WORKLOAD_DEADLINE_S * len(workloads)
    for round_index in range(ROUNDS):
        for workload in workloads:
            spans = (OUT_DIR / f"{workload}.spans.jsonl"
                     if trace and round_index == 0 else None)
            run_round(workload, seed, seconds / ROUNDS, trace, spans,
                      deadline, records[workload])
    return records


def summarize(workload: str, record: dict, seed: int, trace: int,
              spec: dict, pins: dict) -> dict:
    """Print the workload's report lines and return its result object."""
    pinned = pins["digests"][workload] if seed == pins["seed"] else None
    checked = record["samples"] + record["traced"]
    failed = metrics.failures(checked, pinned)
    ran = [s for s in record["samples"] if "wall_s" in s]
    blocks = sum(len(s["latencies_ms"]) for s in ran)
    print(f"{workload}: seed {seed}, {len(checked)} units "
          f"({len(record['traced'])} traced), {blocks} block latencies, "
          f"{len(failed)} failed")
    if ran:
        digests = {s["input"]: s["digests"] for s in reversed(ran)}
        print(f"  digests by input {json.dumps(digests, sort_keys=True)}")
        slices = [us for s in ran for us in s["slices_us"]]
        print(f"  reference slice {statistics.median(slices):.1f} us "
              f"(median of {len(slices)}); times scaled to "
              f"{metrics.REFERENCE_SLICE_US:g} us")
    for line in failed:
        print(f"  FAILED {line}")
    for missing in sorted(record["missing"]):
        print(f"  missing wrap target {missing}")
    if trace:
        values = metrics.per_layer(record["traced"], record["samples"])
        spec_metrics = spec["per_layer"]
    else:
        values = metrics.end_to_end(record["samples"], record["setup_s"],
                                    record["slice_us"],
                                    record["peak_rss_kb"])
        spec_metrics = spec["end_to_end"]
    for metric in spec_metrics:
        print(f"  {metric['name']:<36} {values[metric['name']]:>14.6g} "
              f"{metric['unit']}")
    return metrics.result_object(values, spec_metrics, len(checked),
                                 len(failed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, round-robin)")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer traced run")
    parser.add_argument("--out", help="also write the results here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="check result file B against A and exit")
    args = parser.parse_args(argv)

    spec = metrics.load_spec()
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        rows, ok = metrics.compare(a, b, spec)
        print("\n".join(rows))
        return 0 if ok else 1

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    try:
        records = measure(workloads, args.seed, args.seconds, args.trace)
        results = {w: summarize(w, records[w], args.seed, args.trace, spec,
                                metrics.load_pins())
                   for w in workloads}
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
