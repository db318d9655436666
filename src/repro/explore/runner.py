"""Controlled-run execution: one scenario under one strategy.

:func:`run_controlled` builds a simulation from a scenario dict, wires
a :class:`~repro.explore.schedule.ControlledScheduler` into all three
choice points (engine tie-breaks, channel delays, crash timing),
attaches a :class:`~repro.explore.monitors.MonitorSuite`, runs, and
returns an :class:`ExplorationResult` whose
:class:`~repro.obs.report.RunReport` carries an ``exploration``
section and ``explore.*`` probe counters.

Every message delivery is one engine event, and so is every kinetic
mobility event — link crossing, horizon refresh, arrival — at
``TOPOLOGY`` priority, so the tie-break controller sees each of them
whenever it shares an instant with another event of its class, and
the delay choices decide where every delivery lands relative to the
analytic crossing instants.  Controlled runs move nodes on the same
path every other run uses; nothing is forced.

``strict_safety`` is turned *off*: the monitors are the oracle here,
and a violation must be recorded (step, time, details) rather than
raised mid-event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.explore.monitors import (
    MonitorSuite,
    Violation,
    build_monitors,
    default_monitor_specs,
)
from repro.explore.repro_file import ReproFile
from repro.explore.schedule import ControlledScheduler, ReplaySchedule
from repro.obs.report import RunReport

#: Decision-kind tag -> probe-counter key.
_DECISION_KEYS = {"t": "tie", "d": "delay", "c": "crash"}


@dataclass
class ExplorationResult:
    """Everything one controlled run produced."""

    scenario: Dict[str, Any]
    until: float
    strategy: Dict[str, Any]
    monitor_specs: List[Dict[str, Any]]
    decisions: List[List[Any]]
    violation: Optional[Violation]
    report: RunReport
    steps: int
    #: Tie-group sizes by decision depth (BoundedDFSStrategy only).
    branching: List[int] = field(default_factory=list)

    @property
    def violated(self) -> bool:
        return self.violation is not None

    def to_repro(self) -> ReproFile:
        """Package this (violating) run as a replayable repro file."""
        if self.violation is None:
            raise ConfigurationError(
                "only violating runs can become repro files"
            )
        return ReproFile(
            scenario=self.scenario,
            until=self.until,
            strategy=self.strategy,
            monitors=self.monitor_specs,
            decisions=self.decisions,
            violation=self.violation.to_dict(),
        )


def run_controlled(
    scenario: Dict[str, Any],
    until: float,
    strategy: ControlledScheduler,
    monitor_specs: Optional[List[Dict[str, Any]]] = None,
    on_simulation=None,
) -> ExplorationResult:
    """Run one scenario dict under a controlled scheduler and monitors.

    ``monitor_specs`` defaults to
    :func:`~repro.explore.monitors.default_monitor_specs` for the
    scenario.  The strategy must be fresh (strategies are stateful
    one-run objects).  ``on_simulation``, when given, is called with the
    fully wired :class:`~repro.runtime.simulation.Simulation` before the
    run starts — the hook live-run verification uses to read the trace
    log afterwards.
    """
    # Local import: config_io imports runtime.simulation, which several
    # explore modules sit below in test fakes.
    from repro.harness.config_io import config_from_dict

    if strategy.log.decisions:
        raise ConfigurationError(
            "strategy has already recorded decisions; "
            "use a fresh instance per run"
        )
    if monitor_specs is None:
        monitor_specs = default_monitor_specs(scenario, until)

    config = config_from_dict(scenario)
    # See module docstring: record violations instead of raising.
    config.strict_safety = False

    strategy.bind(config.bounds.min_message_delay, config.bounds.nu)

    # Local import mirrors the public API layering (repro -> explore).
    from repro.runtime.simulation import Simulation

    simulation = Simulation(config)
    simulation.sim.set_choice_controller(strategy)
    simulation.channel.delay_source = strategy.message_delay
    simulation.failures.apply_control(strategy)

    suite = MonitorSuite(build_monitors(monitor_specs))
    suite.attach(simulation)

    if on_simulation is not None:
        on_simulation(simulation)

    result = simulation.run(until=until)
    suite.finalize()

    registry = simulation.registry
    if registry is not None:
        decisions = registry.counter(
            "explore.decisions", "controlled choice-point decisions by kind"
        )
        for kind, count in strategy.log.counts().items():
            if count:
                decisions.inc(count, key=_DECISION_KEYS[kind])
        registry.counter(
            "explore.monitor_checks", "invariant-monitor checks executed"
        ).inc(suite.checks)
        if suite.violation is not None:
            registry.counter(
                "explore.violations", "invariant violations by monitor"
            ).inc(1, key=suite.violation.monitor)
        # Re-snapshot so the explore.* counters appear in the report.
        result.probes = registry.snapshot()

    report = result.report()
    report.exploration = {
        "strategy": strategy.describe(),
        "decisions": {
            _DECISION_KEYS[kind]: count
            for kind, count in sorted(strategy.log.counts().items())
            if count
        },
        "monitor_checks": suite.checks,
        "monitors": [spec["name"] for spec in monitor_specs],
        "violation": (
            suite.violation.to_dict() if suite.violation is not None else None
        ),
    }

    return ExplorationResult(
        scenario=scenario,
        until=until,
        strategy=strategy.describe(),
        monitor_specs=monitor_specs,
        decisions=list(strategy.log.decisions),
        violation=suite.violation,
        report=report,
        steps=simulation.sim.executed_events,
        branching=list(getattr(strategy, "branching", [])),
    )


def replay(repro: ReproFile) -> ExplorationResult:
    """Re-run a repro file; the recorded violation must reappear.

    Raises :class:`ConfigurationError` when the replay diverges (no
    violation, or a different monitor fired) — that means the repro
    file no longer matches the code under test.
    """
    schedule = ReplaySchedule(repro.decisions)
    result = run_controlled(
        repro.scenario, repro.until, schedule, monitor_specs=repro.monitors
    )
    expected = repro.violation
    if result.violation is None:
        raise ConfigurationError(
            "replay diverged: recorded violation of "
            f"{expected.get('monitor')!r} did not reproduce"
        )
    if result.violation.monitor != expected.get("monitor"):
        raise ConfigurationError(
            "replay diverged: expected a violation of "
            f"{expected.get('monitor')!r} but {result.violation.monitor!r} "
            "fired"
        )
    return result


def check_repro(repro: ReproFile,
                monitor: Optional[str] = None) -> Optional[ExplorationResult]:
    """Non-raising replay predicate for the shrinker.

    Returns the result when the run violates ``monitor`` (default: the
    repro's recorded monitor), else None.
    """
    target = monitor or repro.violation.get("monitor")
    schedule = ReplaySchedule(repro.decisions)
    result = run_controlled(
        repro.scenario, repro.until, schedule, monitor_specs=repro.monitors
    )
    if result.violation is not None and result.violation.monitor == target:
        return result
    return None
