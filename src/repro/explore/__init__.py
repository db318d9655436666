"""Adversarial exploration: controlled schedules, invariant monitors,
fuzz campaigns, shrinking and replayable repro files.

The simulator is deterministic, which makes every run an anecdote: one
event ordering out of the astronomically many a real MANET could
exhibit.  This package turns the simulator's two nondeterministic
*choice points* — same-instant event tie-breaks and per-hop message
delays — into first-class decisions a
:class:`~repro.explore.schedule.ControlledScheduler` makes, records
and replays; what a strategy varies before the first event (crash
timing) it writes into the scenario itself, whose timed rows — crash
plan, scripted hunger, link rows — are the one perturbation list the
shrinker reduces.  On top of that sit online
:class:`~repro.explore.monitors.InvariantMonitor`\\ s checking the
paper's safety and progress claims after every event, seeded fuzz
campaigns over generated scenarios, delta-debugging of failing runs,
and schema-versioned JSON repro files that reproduce a violation
bit-identically.

Entry points::

    from repro.explore import run_controlled, run_campaign, replay

    result = run_campaign("alg2", runs=20, seed=1)
    if result.violations:
        repro = result.violations[0]
        replayed = replay(repro)       # same violation, same step

CLI: ``repro-sim explore fuzz|replay|shrink``.  See docs/exploration.md.
"""

from repro.explore.campaign import CampaignResult, run_campaign
from repro.explore.monitors import (
    InvariantMonitor,
    MonitorSuite,
    Violation,
    build_monitors,
    default_monitor_specs,
)
from repro.explore.repro_file import REPRO_SCHEMA_VERSION, ReproFile
from repro.explore.runner import ExplorationResult, replay, run_controlled
from repro.explore.scenarios import scenario_pool
from repro.explore.schedule import (
    ControlledScheduler,
    PCTStrategy,
    RandomStrategy,
    ReplaySchedule,
    build_strategy,
)
from repro.explore.shrink import shrink_repro

__all__ = [
    "CampaignResult",
    "ControlledScheduler",
    "ExplorationResult",
    "InvariantMonitor",
    "MonitorSuite",
    "PCTStrategy",
    "REPRO_SCHEMA_VERSION",
    "RandomStrategy",
    "ReplaySchedule",
    "ReproFile",
    "Violation",
    "build_monitors",
    "build_strategy",
    "default_monitor_specs",
    "replay",
    "run_campaign",
    "run_controlled",
    "scenario_pool",
    "shrink_repro",
]
