"""Multi-seed experiment replication with confidence intervals.

One seed is an anecdote.  The replication helpers here re-run a
scenario across seeds and aggregate per-seed scalar metrics into a
mean with a Student-t confidence interval, which the benchmark suite
uses for its headline comparisons and which downstream users get for
free when evaluating their own configurations.

Scaling notes
-------------

Seeded runs are embarrassingly parallel and bit-deterministic, so
:func:`replicate` accepts ``workers=N`` (a ``ProcessPoolExecutor``
fan-out).  Results are assembled in seed order, so the parallel path
returns *exactly* the numbers the serial path would — scheduling order
never leaks into the estimates.

With ``workers > 1`` the scenario config and every metric function
cross a process boundary and must be picklable (the module-level
extractors in :data:`DEFAULT_METRICS` are; ad-hoc lambdas are not).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Union

from repro._version import __version__
from repro.errors import ConfigurationError
from repro.harness.config_io import config_to_dict
from repro.runtime.simulation import ScenarioConfig, Simulation, SimulationResult

#: Two-sided 95% Student-t critical values by degrees of freedom (1..30);
#: falls back to the normal 1.96 beyond the table.
_T_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
    19: 2.093, 20: 2.086, 25: 2.060, 30: 2.042,
}


def t_critical_95(dof: int) -> float:
    """Two-sided 95% t critical value."""
    if dof <= 0:
        raise ValueError("degrees of freedom must be positive")
    if dof in _T_95:
        return _T_95[dof]
    for key in sorted(_T_95):
        if dof < key:
            return _T_95[key]
    return 1.96


@dataclass(frozen=True)
class Estimate:
    """A mean with a symmetric 95% confidence half-width."""

    mean: float
    half_width: float
    samples: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.half_width:.3f} (n={self.samples})"


def estimate(values: Sequence[float]) -> Estimate:
    """95% CI estimate of a scalar's mean across replications."""
    data = list(values)
    if not data:
        raise ValueError("estimate of empty sample")
    n = len(data)
    mean = sum(data) / n
    if n == 1:
        return Estimate(mean, float("inf"), 1)
    variance = sum((v - mean) ** 2 for v in data) / (n - 1)
    half = t_critical_95(n - 1) * math.sqrt(variance / n)
    return Estimate(mean, half, n)


MetricFn = Callable[[SimulationResult], float]


def scenario_key(
    config: ScenarioConfig,
    until: float,
    seed: int,
) -> Optional[str]:
    """Stable name for one seeded run, or None if the run has none.

    SHA-256 of the declarative serialization of the scenario
    (:func:`repro.harness.config_io.config_to_dict`), the run horizon,
    the seed and the library version: any change to any
    ``ScenarioConfig`` field changes it, a mobility plan's blocks
    included.  Scenarios that carry behavior as an opaque callable (an
    algorithm entry, or a mobility factory that is not a
    :class:`~repro.mobility.plan.MobilityPlan`) have no key.
    """
    try:
        payload = config_to_dict(dataclasses.replace(config, seed=seed))
    except ConfigurationError:
        return None
    blob = json.dumps(
        {
            "config": payload,
            "until": until,
            "version": __version__,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _report_name(config: ScenarioConfig, until: float, seed: int) -> str:
    """Filename stem for one per-seed report: the scenario key when the
    config serializes, else just the seed (collision-free within one
    replicate call, which runs a single scenario)."""
    key = scenario_key(config, until, seed)
    return key if key is not None else f"seed{seed}"


def _run_seed(
    config: ScenarioConfig,
    until: float,
    seed: int,
    metrics: Dict[str, MetricFn],
    report_dir: Union[str, Path, None] = None,
    metrics_dir: Union[str, Path, None] = None,
) -> Dict[str, float]:
    """Execute one seeded run and extract its scalar metrics.

    Module-level so worker processes can unpickle it.  With
    ``report_dir`` set, the run's full :class:`RunReport` is saved as
    ``<scenario_key>.json`` alongside the scalar extraction; with
    ``metrics_dir`` set, the probe snapshot is saved as
    ``<scenario_key>.prom`` OpenMetrics text.
    """
    result = Simulation(dataclasses.replace(config, seed=seed)).run(until=until)
    stem = _report_name(config, until, seed)
    if report_dir is not None:
        directory = Path(report_dir)
        directory.mkdir(parents=True, exist_ok=True)
        result.report().save(directory / f"{stem}.json")
    if metrics_dir is not None:
        directory = Path(metrics_dir)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{stem}.prom").write_text(result.openmetrics())
    return {name: fn(result) for name, fn in metrics.items()}


def replicate(
    config: ScenarioConfig,
    until: float,
    seeds: Sequence[int],
    metrics: Dict[str, MetricFn],
    *,
    workers: int = 1,
    report_dir: Union[str, Path, None] = None,
    metrics_dir: Union[str, Path, None] = None,
) -> Dict[str, Estimate]:
    """Run a scenario under each seed; estimate each scalar metric.

    The scenario is rebuilt per seed (``dataclasses.replace``), so all
    stochastic inputs — workload, message jitter, mobility — re-draw.

    Args:
        workers: processes to fan seeds across (1 = in-process serial).
            The estimates are identical either way.
        report_dir: directory receiving one ``RunReport`` JSON per
            seed, named by :func:`scenario_key`.
        metrics_dir: directory receiving one OpenMetrics ``.prom``
            snapshot per seed (same naming as ``report_dir``).  Requires
            the scenario to have ``telemetry=True`` for the snapshot to
            carry samples.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    jobs = [
        (config, until, seed, metrics, report_dir, metrics_dir)
        for seed in seeds
    ]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_seed, *job) for job in jobs]
            samples = [future.result() for future in futures]
    else:
        samples = [_run_seed(*job) for job in jobs]
    return {
        name: estimate([sample[name] for sample in samples])
        for name in metrics
    }


# Ready-made metric extractors ------------------------------------------------


def mean_response(result: SimulationResult) -> float:
    times = result.response_times
    return sum(times) / len(times) if times else float("nan")


def max_response(result: SimulationResult) -> float:
    times = result.response_times
    return max(times) if times else float("nan")


def throughput(result: SimulationResult) -> float:
    return result.cs_entries / result.duration if result.duration else 0.0


def message_cost(result: SimulationResult) -> float:
    per_cs = result.messages_per_cs()
    return per_cs if per_cs is not None else float("nan")


DEFAULT_METRICS: Dict[str, MetricFn] = {
    "mean_response": mean_response,
    "max_response": max_response,
    "throughput": throughput,
    "messages_per_cs": message_cost,
}
