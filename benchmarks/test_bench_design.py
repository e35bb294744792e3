"""Design-service latency: warm table lookup vs inline optimizer.

Not a paper figure — this is the tentpole gate for the precomputed
design-table service: a warm :meth:`~repro.design.service.\
DesignService.lookup` must answer scheme selection at least 100x
faster than running :func:`~repro.design.optimizer.optimize_emss`
inline at a realistic offline design point (n = 120, the ext-design
block size, where the optimizer's (m, d) sweep costs real work while
the lookup stays a dict probe whatever the block size).
"""

import time
import timeit

from repro.design.optimizer import optimize_emss
from repro.design.service import DesignService
from repro.design.table import DesignTable, TableSpec
from repro.experiments.common import ExperimentResult

N = 120
P = 0.2
Q_TARGET = 0.85
DELAY_BUDGET = 16
MIN_LOOKUP_SPEEDUP = 100.0

SPEC = TableSpec(block_sizes=(N,), q_targets=(Q_TARGET,),
                 delay_budgets=(DELAY_BUDGET,), families=("emss",))


def _service():
    return DesignService(DesignTable.build(SPEC, workers=1))


def test_bench_table_build(benchmark, show):
    """Full-lattice table build (10 p-points, one family) offline cost."""
    table = benchmark(DesignTable.build, SPEC, 1)
    assert table.feasible_count() == len(SPEC.p_grid)

    seconds = benchmark.stats.stats.mean
    result = ExperimentResult(
        experiment_id="bench-design-table-build",
        title=f"design-table build, {len(table.cells)} cells, n={N}",
    )
    result.rows.append({
        "cells": len(table.cells),
        "build s": seconds,
        "cells/sec": len(table.cells) / seconds,
    })
    result.note("serial build; the pooled build is byte-identical")
    show(result)


def test_bench_warm_lookup_vs_inline(benchmark, show):
    """>= 100x: warm O(1) lookup vs inline optimize_emss at n=120.

    Both arms answer the same design question, and must agree exactly
    — the speedup may not change the selected parameters.
    """
    service = _service()
    point = benchmark(service.lookup, P, N, Q_TARGET, "emss", DELAY_BUDGET)
    inline = optimize_emss(N, P, Q_TARGET, max_delay_slots=DELAY_BUDGET)
    assert point == inline

    # The gate compares best-case against best-case with timeit so
    # pytest-benchmark calibration noise cannot flip it.
    lookup_rounds = 2000
    lookup_s = min(timeit.repeat(
        lambda: service.lookup(P, N, Q_TARGET, "emss", DELAY_BUDGET),
        number=lookup_rounds, repeat=5)) / lookup_rounds
    inline_rounds = 5
    inline_s = min(timeit.repeat(
        lambda: optimize_emss(N, P, Q_TARGET,
                              max_delay_slots=DELAY_BUDGET),
        number=inline_rounds, repeat=3)) / inline_rounds
    speedup = inline_s / lookup_s
    assert speedup >= MIN_LOOKUP_SPEEDUP, (
        f"warm lookup only {speedup:.1f}x over inline optimize_emss "
        f"(need >= {MIN_LOOKUP_SPEEDUP:g}x): {lookup_s * 1e6:.2f}us vs "
        f"{inline_s * 1e6:.2f}us")

    result = ExperimentResult(
        experiment_id="bench-design-lookup",
        title=f"design selection at n={N}, p={P}, q>={Q_TARGET}",
    )
    for arm, seconds in (("warm table lookup", lookup_s),
                         ("inline optimize_emss", inline_s)):
        result.rows.append({
            "path": arm,
            "selection s": seconds,
            "selections/sec": 1.0 / seconds,
        })
    result.note(f"identical answers; speedup {speedup:.0f}x "
                f"(gate >= {MIN_LOOKUP_SPEEDUP:g}x)")
    show(result)


def test_bench_service_load(benchmark, show, tmp_path):
    """Cold start: parse + validate + materialize a saved table."""
    path = str(tmp_path / "table.json")
    table = DesignTable.build(SPEC, workers=1)
    table.save(path)

    service = benchmark(DesignService.load, path)
    assert service.table.content_hash == table.content_hash

    seconds = benchmark.stats.stats.mean
    result = ExperimentResult(
        experiment_id="bench-design-load",
        title=f"design-service cold load, {len(table.cells)} cells",
    )
    result.rows.append({
        "cells": len(table.cells),
        "load s": seconds,
    })
    result.note("includes schema, lattice and content-hash validation")
    show(result)
