"""Experiment harness: canonical runners for every table and figure.

Each experiment function returns ``(headers, rows)`` suitable for
:func:`repro.analysis.tables.render_table`; the benchmarks print them
at paper scale and the test suite asserts their qualitative shape at
reduced scale.  EXPERIMENTS.md records the expected outcomes.

Multi-seed replication (:func:`replicate`) lives here too — see
``docs/performance.md``.
"""

from repro.harness.experiments import (
    compare_algorithms,
    crash_probe,
    doorway_latency,
    fig6_crash_scenario,
    pipeline_breakdown,
    response_vs_n,
    run_static,
)
from repro.harness.multiseed import (
    DEFAULT_METRICS,
    Estimate,
    estimate,
    replicate,
    scenario_key,
)

__all__ = [
    "DEFAULT_METRICS",
    "Estimate",
    "compare_algorithms",
    "crash_probe",
    "doorway_latency",
    "estimate",
    "fig6_crash_scenario",
    "pipeline_breakdown",
    "replicate",
    "response_vs_n",
    "run_static",
    "scenario_key",
]
