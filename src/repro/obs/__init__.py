"""Run telemetry: metric registry, protocol probes, reports, profiling.

The observability layer every later perf/robustness PR reads its
numbers from.  See ``docs/observability.md`` for the registry idiom,
the probe catalogue, the report schema and the starvation watchdog.
"""

from repro.obs.bench_history import append_record, check_latest, load_history
from repro.obs.openmetrics import (
    build_metrics_server,
    openmetrics_from_report,
    render_openmetrics,
)
from repro.obs.probes import ProtocolProbes, build_probes
from repro.obs.profiler import EngineProfiler
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    live_registry,
)
from repro.obs.report import SCHEMA_VERSION, RunReport
from repro.obs.watchdog import StarvationWarning, StarvationWatchdog

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EngineProfiler",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NULL_REGISTRY",
    "ProtocolProbes",
    "RunReport",
    "SCHEMA_VERSION",
    "StarvationWarning",
    "StarvationWatchdog",
    "append_record",
    "build_metrics_server",
    "build_probes",
    "check_latest",
    "live_registry",
    "load_history",
    "openmetrics_from_report",
    "render_openmetrics",
]
