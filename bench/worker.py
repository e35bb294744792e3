"""One benchmark round in a fresh interpreter: set up, warm up, time units.

Started by ``run.py``; not meant to be run by hand.  Reports on stdout,
one ``@bench <json>`` line per event:

* ``ready`` once set-up (interpreter, imports, key load, config build)
  is done;
* ``reference`` with the median reference slice right after set-up;
* ``sample`` per timed untraced unit;
* ``traced`` per traced unit (``--trace 1``; it follows an untraced
  unit, so the pair measures the tracing overhead in place);
* ``done`` with the peak resident set size.

The round runs units until ``--budget`` seconds have passed and at
least the workload's minimum count has run.  Before each unit the heap
is collected, so every unit starts from the same garbage-collector
state.  Untraced units run a reference slice after every block (see
``tracing.Probe``).  One asyncio loop per session, no threads, no
worker processes.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback

from metrics import INPUTS, percentile
from tracing import (Probe, install_block_hooks, install_tracing,
                     reference_slice_ns, self_times)
from workloads import make_workload

PREFIX = "@bench "


def emit(event: str, **fields) -> None:
    print(PREFIX + json.dumps(dict(event=event, **fields)), flush=True)


def _run_unit(workload, probe, index: int, traced: bool = False) -> dict:
    """One unit from a collected heap; an exception becomes a failed
    sample, not a crash."""
    gc.collect()
    try:
        return workload.run(probe, index, traced=traced)
    except Exception as error:  # the round must go on and report it
        traceback.print_exc(file=sys.stderr)
        return {"input": index, "error": f"{type(error).__name__}: {error}"}


def _traced_unit(workload, probe, index: int) -> tuple:
    """One unit under span wrappers; returns its sample and its spans."""
    patcher = install_tracing(probe)
    try:
        sample = _run_unit(workload, probe, index, traced=True)
    finally:
        patcher.restore()
    spans = list(probe.spans)
    if "error" in sample:
        return sample, spans
    self_ns, calls = self_times(spans)
    attributed = sum(self_ns.values()) / 1e9
    if abs(attributed - sample["wall_s"]) > 0.01 * sample["wall_s"]:
        sample["violations"].append(
            f"self times sum to {attributed:.6f} s of a "
            f"{sample['wall_s']:.6f} s session")
    waits = [ns / 1e6 for ns in probe.transport_ns]
    sample.update(
        self_ns=self_ns,
        calls=calls,
        transport_wait_ms=([percentile(waits, 0.5), percentile(waits, 0.95)]
                           if waits else []),
        barrier_ms=[ns / 1e6 for ns in probe.barrier_ns],
        verified=sum(r.verified_count() for r in probe.receivers),
        rejects=sum(r.forged_rejected + r.undecodable + r.replays_dropped
                    for r in probe.receivers),
        root_hits=sum(v.cache_hits for v in probe.batch_verifiers),
        root_verifies=sum(v.root_verifies for v in probe.batch_verifiers),
        missing=patcher.missing,
    )
    for key in ("latencies_ms", "latency_slices", "slices_us"):
        del sample[key]
    return sample, spans


def _write_spans(path: str, spans) -> None:
    """Spans of the first traced session as JSON lines, times relative
    to its start; its trace ids are ``s0`` and ``s0:b<block>``."""
    origin = spans[0][1] if spans else 0
    with open(path, "w") as out:
        for index, (name, start, end, parent, block) in enumerate(spans):
            trace = f"s0:b{block}" if block >= 0 else "s0"
            out.write(json.dumps({
                "trace": trace, "span": index,
                "parent": parent, "name": name,
                "start_ns": start - origin, "end_ns": end - origin,
            }) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--first-input", type=int, default=0,
                        help="input index of this round's first unit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="write the first traced session's spans here")
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed)
    emit("ready")
    emit("reference", slice_us=statistics.median(
        reference_slice_ns() for _ in range(64)) / 1e3)

    probe = Probe()
    hooks = install_block_hooks(probe)
    kept_spans = None
    try:
        try:
            workload.run(probe, warmup=True)
        except Exception:  # the timed units will fail and be counted
            traceback.print_exc(file=sys.stderr)
        units = 0
        start = time.perf_counter()
        while (units < workload.min_units
               or time.perf_counter() - start < args.budget):
            index = (args.first_input + units) % INPUTS
            emit("sample", **_run_unit(workload, probe, index))
            if args.trace:
                sample, spans = _traced_unit(workload, probe, index)
                if kept_spans is None:
                    kept_spans = spans
                emit("traced", **sample)
            units += 1
    finally:
        hooks.restore()
    if args.spans and kept_spans is not None:
        _write_spans(args.spans, kept_spans)
    emit("done", peak_rss_kb=resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss)
    return 0


if __name__ == "__main__":
    sys.exit(main())
