"""Discrete-event simulation kernel.

This package provides the execution substrate on which every protocol in
the reproduction runs: a deterministic event-driven scheduler
(:class:`~repro.sim.engine.Simulator`), scheduled-event handles
(:class:`~repro.sim.events.ScheduledEvent`), restartable timers
(:class:`~repro.sim.timers.Timer`) and seeded random substreams
(:class:`~repro.sim.rng.RandomSource`).  A run's effect log lives one
layer up, on :class:`~repro.runtime.simulation.Simulation`.

The kernel knows nothing about networks or mutual exclusion; it only
orders callbacks in virtual time.  Determinism is a hard requirement:
given the same seed and configuration, every run produces the identical
event sequence, which the test suite relies on.
"""

from repro.sim.clock import TimeBounds
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority, ScheduledEvent
from repro.sim.rng import RandomSource
from repro.sim.timers import Timer

__all__ = [
    "EventPriority",
    "RandomSource",
    "ScheduledEvent",
    "Simulator",
    "TimeBounds",
    "Timer",
]
