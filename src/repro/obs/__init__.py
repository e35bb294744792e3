"""``repro.obs`` — dependency-free observability for the reproduction.

Designed to be bit-for-bit neutral to simulation results (metrics
never touch an RNG) and zero-cost when disabled:

* :mod:`repro.obs.registry` — counters, timers and fixed-bucket
  histograms with an exact ``merge()`` (the :class:`~repro.analysis.
  montecarlo.McResult` algebra), plus the process-wide current
  registry and the :data:`NULL_REGISTRY` fast path;
* :mod:`repro.obs.spans` — nested span timing feeding registry timers
  and an optional JSON-lines trace sink;
* :mod:`repro.obs.lifecycle` — deterministic per-packet lifecycle
  traces (``sign -> frame -> enqueue -> transport -> ingest ->
  verify``) with hash-derived trace IDs and hash-selected sampling,
  byte-identical across runs of the same config;
* :mod:`repro.obs.timeseries` — per-receiver gauges on a fixed
  virtual-time grid for watching a live session evolve;
* :mod:`repro.obs.health` — online health plane for live serving:
  integer-CUSUM SLO monitors, envelope drift detection against the
  design lattice, soundness sentinels, and a deterministic JSON-lines
  alert pipeline with exact state ``merge()``;
* :mod:`repro.obs.sinks` — the JSON-lines :class:`TraceSink` and the
  sort-at-flush :class:`CanonicalLog` the three collectors above write
  through; :mod:`repro.obs.artifacts` validates their files;
* :mod:`repro.obs.export` — Chrome trace-event / Perfetto JSON and
  Prometheus text renderings of the above;
* :mod:`repro.obs.manifest` — per-run provenance manifests and the
  schema validation CI leans on; :mod:`repro.obs.bench` folds
  pytest-benchmark output into ``BENCH_<date>.json`` trajectories and
  diffs two of them for the regression gate.
"""

from repro.obs.artifacts import ARTIFACT_KINDS, validate_artifact
from repro.obs.bench import (
    build_bench_report,
    diff_bench_reports,
    index_bench_report,
    load_bench_report,
    write_bench_report,
)
from repro.obs.export import (
    chrome_trace_payload,
    prometheus_text,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.health import (
    ALERT_DETECTORS,
    ALERT_SEVERITIES,
    AlertEvent,
    HealthMonitor,
    SloSpec,
    max_severity,
    parse_slo_spec,
)
from repro.obs.lifecycle import (
    LIFECYCLE_STAGES,
    NULL_LIFECYCLE,
    LifecycleTracer,
    NullLifecycleTracer,
    get_lifecycle,
    lifecycle_sampled,
    lifecycle_trace_id,
    set_lifecycle,
    use_lifecycle,
)
from repro.obs.manifest import (
    RunManifest,
    git_sha,
    validate_metrics_file,
    validate_metrics_payload,
)
from repro.obs.registry import (
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    metrics_enabled,
    set_registry,
    use_registry,
)
from repro.obs.sinks import CanonicalLog, TraceSink, write_json_file
from repro.obs.spans import (
    get_trace_sink,
    profile_report,
    set_trace_sink,
    span,
)
from repro.obs.timeseries import TimeseriesSampler

__all__ = [
    "ALERT_DETECTORS",
    "ALERT_SEVERITIES",
    "ARTIFACT_KINDS",
    "AlertEvent",
    "CanonicalLog",
    "HealthMonitor",
    "SloSpec",
    "Histogram",
    "LIFECYCLE_STAGES",
    "LifecycleTracer",
    "MetricsRegistry",
    "NullLifecycleTracer",
    "NullRegistry",
    "NULL_LIFECYCLE",
    "NULL_REGISTRY",
    "RunManifest",
    "TimeseriesSampler",
    "TraceSink",
    "build_bench_report",
    "chrome_trace_payload",
    "diff_bench_reports",
    "get_lifecycle",
    "get_registry",
    "get_trace_sink",
    "git_sha",
    "index_bench_report",
    "lifecycle_sampled",
    "lifecycle_trace_id",
    "load_bench_report",
    "max_severity",
    "metrics_enabled",
    "parse_slo_spec",
    "profile_report",
    "prometheus_text",
    "set_lifecycle",
    "set_registry",
    "set_trace_sink",
    "span",
    "use_lifecycle",
    "use_registry",
    "validate_artifact",
    "validate_metrics_file",
    "validate_metrics_payload",
    "write_bench_report",
    "write_chrome_trace",
    "write_json_file",
    "write_prometheus",
]
