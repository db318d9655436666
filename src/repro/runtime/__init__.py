"""Runtime: binds algorithms to the simulator and drives workloads.

* :class:`~repro.runtime.node.NodeHarness` — one per node; implements
  the :class:`~repro.core.base.NodeServices` contract for its algorithm
  and the link layer's handler contract.
* :class:`~repro.runtime.app.HungerWorkload` — the "external
  application" of Section 3.2 that flips nodes thinking -> hungry;
  :class:`~repro.runtime.failures.CrashInjector` — schedules silent
  crashes.  Both schedule through one hook on every runtime, the
  simulator and the live ones alike (see :mod:`repro.runtime.app`).
* :class:`~repro.runtime.simulation.Simulation` /
  :class:`~repro.runtime.simulation.ScenarioConfig` — one-call facade
  that assembles topology, channels, mobility, workload, metrics and a
  safety monitor into a runnable experiment.
"""

from repro.runtime.app import HungerWorkload
from repro.runtime.failures import CrashInjector
from repro.runtime.node import NodeHarness
from repro.runtime.simulation import ScenarioConfig, Simulation, SimulationResult

__all__ = [
    "CrashInjector",
    "HungerWorkload",
    "NodeHarness",
    "ScenarioConfig",
    "Simulation",
    "SimulationResult",
]
