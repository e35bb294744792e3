"""Exact offset-set profiles under the frontier engine.

The ``test_exact_periodic_reach12_n400`` hot spot (~2.3 s under the
dictionary walk) is the workload benchmarked here under the shipping
frontier engine (:mod:`repro.analysis.frontier`) over the compiled
``offsets(1,5,12)`` graph; the speedup assertion keeps the engine from
silently regressing to per-state Python, and the cross-check keeps it
honest against the reference walk.  ``E_{4,4}`` at n = 128 times the
root split: four width-4 walks where one walk would need 16 bits.
"""

import time

import pytest

from repro.analysis.exact_chain import exact_q_profile
from repro.analysis.frontier import frontier_q_profile, frontier_width
from repro.experiments.common import ExperimentResult
from repro.schemes.emss import EmssScheme, GenericOffsetScheme

from tests.oracles import exact_periodic_q_profile_reference

N = 400
OFFSETS = (1, 5, 12)
LOSS_RATE = 0.2
MIN_SPEEDUP = 5.0


def test_bench_exact_periodic_oracle(benchmark, show):
    plan = GenericOffsetScheme(OFFSETS).block_plan(N)
    q_min = benchmark(lambda: min(frontier_q_profile(plan, LOSS_RATE)
                                  .values()))

    assert 0.0 < q_min < 1.0
    engine_seconds = benchmark.stats.stats.mean

    # Correctness: full-precision agreement with the reference walk on
    # the benchmarked workload itself.  Send position s is the
    # reference's signature-rooted index n + 1 - s.
    start = time.perf_counter()
    reference = exact_periodic_q_profile_reference(N, list(OFFSETS),
                                                   LOSS_RATE)
    reference_seconds = time.perf_counter() - start
    engine = frontier_q_profile(plan, LOSS_RATE)
    for position, got in engine.items():
        assert got == pytest.approx(reference[N - position], abs=1e-12)
    assert q_min == pytest.approx(min(reference), abs=1e-12)

    speedup = reference_seconds / engine_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"frontier engine only {speedup:.1f}x over the reference walk "
        f"(need >= {MIN_SPEEDUP}x): {engine_seconds:.4f}s vs "
        f"{reference_seconds:.4f}s")

    result = ExperimentResult(
        experiment_id="bench-exact",
        title="exact offset-set profile, reach 12, n=400",
    )
    result.rows.append({
        "n": N,
        "offsets": str(list(OFFSETS)),
        "p": LOSS_RATE,
        "q_min": q_min,
        "engine s": engine_seconds,
        "reference s": reference_seconds,
        "speedup": speedup,
    })
    result.note("frontier engine over the compiled graph vs the "
                "dictionary walk; both exact to 1e-12")
    show(result)


def test_bench_exact_emss44_n128(benchmark):
    n = 128
    plan = EmssScheme(4, 4).block_plan(n)
    assert frontier_width(plan) == 4
    profile = benchmark(frontier_q_profile, plan, LOSS_RATE)

    # Each component is an E_{4,1} chain; P_s sits ceil((n - s) / 4)
    # hops from P_sign in its own.
    chain = exact_q_profile(n // 4 + 1, 4, LOSS_RATE)
    for s, got in profile.items():
        assert got == pytest.approx(chain[-((s - n) // 4)], abs=1e-12)
