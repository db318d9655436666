"""Workloads: the "external application" of Section 3.2.

The paper leaves hungry arrivals to an unspecified application; the
harness provides two:

* :class:`HungerWorkload` — stochastic think times (the standard
  benchmark workload), optionally saturating (think time zero);
* :class:`ScriptedHunger` — exact hungry times per node, for scenario
  reproductions and tests.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Tuple

from repro.errors import ConfigurationError
from repro.runtime.node import NodeHarness
from repro.sim.engine import Simulator

#: Window (virtual time) from which every node's first hunger is drawn,
#: in the simulator and on the live bus alike.
INITIAL_DELAY_RANGE: Tuple[float, float] = (0.0, 1.0)


class HungerWorkload:
    """Poisson-ish think/eat cycling for every attached node.

    Per-node ("workload", node_id) substreams are *not* materialized at
    attach time: a memoized ``random.Random`` costs ~2.5 KB, and a
    city-scale run attaches hundreds of thousands of nodes of which
    many never finish a single critical section.  The attach-time
    initial-delay draw instead comes from one reusable scratch RNG
    seeded with the substream's seed (``uniform`` consumes exactly one
    underlying ``random()`` call), and the memoized stream is created
    lazily at a node's first ``_on_done_eating`` — fast-forwarded past
    that one attach draw — so every value drawn is bit-identical to
    the eager scheme.
    """

    def __init__(
        self,
        sim: Simulator,
        rng_source,
        think_range: Tuple[float, float] = (1.0, 5.0),
    ) -> None:
        lo, hi = think_range
        if not 0 <= lo <= hi:
            raise ConfigurationError(f"bad think range {think_range}")
        self._sim = sim
        self._rng_source = rng_source
        self.think_range = (lo, hi)
        # Reusable scratch RNG for attach-time draws (re-seeded per
        # node); the memoized per-node substream appears lazily in
        # _on_done_eating.
        self._scratch = random.Random()

    def attach_all(self, harnesses: Iterable[NodeHarness]) -> None:
        """Start driving every node, deferring the draws to run start.

        Per-node attach work is pure RNG arithmetic — derive the
        substream seed, seed the scratch RNG, draw the initial delay —
        plus one schedule call (the node's first hunger), and at city
        scale it dominates ``Simulation`` construction.  Since it only
        *schedules* events, the whole loop rides the engine's startup
        hook: it runs right before the first event pops (see
        :meth:`repro.sim.engine.Simulator.defer_startup`).
        """
        nodes = list(harnesses)
        self._sim.defer_startup(lambda: self._attach_now(nodes))

    def _attach_now(self, nodes: List[NodeHarness]) -> None:
        on_done = self._on_done_eating
        scratch = self._scratch
        seed = scratch.seed
        uniform = scratch.uniform
        ilo, ihi = INITIAL_DELAY_RANGE
        stream_seed = self._rng_source.stream_seed
        schedule = self._sim.schedule
        for harness in nodes:
            harness.on_done_eating = on_done
            seed(stream_seed("workload", harness.node_id))
            schedule(uniform(ilo, ihi), harness.become_hungry)

    def _on_done_eating(self, harness: NodeHarness) -> None:
        source = self._rng_source
        fresh = not source.has_stream("workload", harness.node_id)
        rng = source.stream("workload", harness.node_id)
        if fresh:
            # First materialization: skip the single random() call the
            # attach-time initial-delay draw consumed via the scratch
            # RNG, so the sequence continues exactly where the eager
            # per-node stream would be.
            rng.random()
        think = rng.uniform(*self.think_range)
        self._sim.schedule(think, harness.become_hungry)


class ScriptedHunger:
    """Exact per-node hungry times (for scenario benchmarks)."""

    def __init__(self, sim: Simulator, schedule: Dict[int, Iterable[float]]) -> None:
        self._sim = sim
        self._schedule: Dict[int, List[float]] = {
            node: sorted(times) for node, times in schedule.items()
        }

    def attach(self, harness: NodeHarness) -> None:
        for time in self._schedule.get(harness.node_id, []):
            self._sim.schedule_at(time, harness.become_hungry)
