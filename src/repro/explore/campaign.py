"""Fuzz campaigns: many controlled runs, in parallel.

A campaign pairs generated scenarios (:mod:`repro.explore.scenarios`)
with per-run strategy seeds and executes them through
:func:`~repro.explore.runner.run_controlled`, fanning out over the
same ``ProcessPoolExecutor`` pattern the multi-seed harness uses —
tasks are plain JSON dicts, the worker is module-level, and results
are reassembled positionally so ``workers=N`` returns exactly what
serial execution would.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.explore.monitors import default_monitor_specs
from repro.explore.repro_file import ReproFile
from repro.explore.runner import run_controlled
from repro.explore.scenarios import scenario_pool
from repro.explore.schedule import build_strategy


def _run_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one campaign task (module-level: pool workers pickle it).

    Returns a JSON-ready dict: always ``violated``/``steps``/
    ``family``; violating runs add the full repro-file dict.
    """
    strategy = build_strategy(task["strategy"])
    result = run_controlled(
        task["scenario"], task["until"], strategy,
        monitor_specs=task["monitors"],
    )
    out: Dict[str, Any] = {
        "violated": result.violated,
        "steps": result.steps,
        "family": task.get("family", "?"),
    }
    if result.violated:
        out["repro"] = result.to_repro().to_dict()
    return out


@dataclass
class CampaignResult:
    """Aggregate outcome of one fuzz campaign."""

    algorithm: str
    strategy: str
    runs: int
    violations: List[ReproFile] = field(default_factory=list)
    #: Per-run summaries, in task order: family, violated, steps.
    outcomes: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations


def _build_tasks(
    algorithm: str,
    runs: int,
    seed: int,
    strategy: str,
    pct_depth: int,
) -> List[Dict[str, Any]]:
    pool = scenario_pool(algorithm, count=min(runs, 10), seed=seed)
    tasks = []
    for k in range(runs):
        entry = pool[k % len(pool)]
        strategy_seed = seed * 1000 + k
        if strategy == "random":
            descriptor: Dict[str, Any] = {
                "kind": "random", "seed": strategy_seed,
            }
        elif strategy == "pct":
            descriptor = {
                "kind": "pct", "seed": strategy_seed, "depth": pct_depth,
            }
        else:
            raise ConfigurationError(
                f"unknown campaign strategy {strategy!r} "
                "(expected random or pct)"
            )
        tasks.append(
            {
                "scenario": entry["scenario"],
                "until": entry["until"],
                "family": entry["family"],
                "strategy": descriptor,
                "monitors": default_monitor_specs(
                    entry["scenario"], entry["until"]
                ),
            }
        )
    return tasks


def run_campaign(
    algorithm: str,
    runs: int = 20,
    seed: int = 0,
    strategy: str = "random",
    workers: int = 1,
    pct_depth: int = 3,
    stop_on_first: bool = False,
) -> CampaignResult:
    """Fuzz one algorithm: ``runs`` controlled runs over a scenario pool.

    Args:
        algorithm: registry name (clean algorithms or ablations).
        runs: number of controlled runs.
        seed: campaign seed; scenario pool and per-run strategy seeds
            (``seed * 1000 + k``) derive from it, so a campaign is
            reproducible from ``(algorithm, runs, seed, strategy)``.
        strategy: ``random`` or ``pct``.
        workers: process fan-out.
        stop_on_first: serially stop at the first violation (used by
            the CLI smoke mode; implies no parallelism).
    """
    tasks = _build_tasks(algorithm, runs, seed, strategy, pct_depth)

    outcomes: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
    if stop_on_first:
        for index, task in enumerate(tasks):
            outcomes[index] = _run_task(task)
            if outcomes[index]["violated"]:
                break
    elif workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as executor:
            outcomes = list(executor.map(_run_task, tasks))
    else:
        outcomes = [_run_task(task) for task in tasks]

    violations: List[ReproFile] = []
    final: List[Dict[str, Any]] = []
    for outcome in outcomes:
        if outcome is None:  # after stop_on_first
            continue
        repro_dict = outcome.pop("repro", None)
        if repro_dict is not None:
            violations.append(ReproFile.from_dict(repro_dict))
        final.append(
            {
                "family": outcome.get("family", "?"),
                "violated": outcome["violated"],
                "steps": outcome["steps"],
            }
        )

    return CampaignResult(
        algorithm=algorithm,
        strategy=strategy,
        runs=len(final),
        violations=violations,
        outcomes=final,
    )
