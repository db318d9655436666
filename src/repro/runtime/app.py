"""Scenario events: the "external application" of Section 3.2 and the
scripted link rows.

A scenario's hungry arrivals, its crash plan
(:class:`~repro.runtime.failures.CrashInjector`) and its scripted link
rows are scheduled by one code path on every runtime, through one hook
``at(time, kind, fn, *args)``: "at virtual ``time`` run event ``kind``
as ``fn(*args)``".  The simulator's hook (:func:`sim_hook`) is
``Simulator.schedule_at`` and drops the kind; the live runtimes' hook
(:meth:`repro.live.runtime.WallClockRuntime.at`) runs the call as one
recorded row of that kind.

:class:`HungerWorkload` makes nodes hungry — at exact scripted times,
or with stochastic think times (the standard benchmark workload,
optionally saturating with think time zero).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.runtime.node import NodeHarness
from repro.sim.engine import Simulator

#: Window (virtual time) from which every node's first hunger is drawn,
#: in the simulator and on the live runtimes alike.
INITIAL_DELAY_RANGE: Tuple[float, float] = (0.0, 1.0)


def sim_hook(sim: Simulator) -> Callable[..., Any]:
    """The simulator's scenario-event hook: ``schedule_at``, kind dropped."""
    schedule_at = sim.schedule_at

    def at(time: float, kind: str, fn: Callable[..., None], *args: Any):
        return schedule_at(time, fn, *args)

    return at


def schedule_link_rows(
    at: Callable[..., Any], linklayer, rows: Iterable[Sequence[Any]]
) -> None:
    """Schedule ``[time, op, a, b, mover]`` rows as forced link events.

    Each row becomes one ``up`` / ``down`` event that forces the link
    state and emits the indications the link layer's contract gives,
    independent of node positions.
    """
    for time, op, a, b, mover in rows:
        at(float(time), str(op), linklayer.apply_link_event,
           str(op), int(a), int(b), int(mover))


class HungerWorkload:
    """Hungry times for every attached node, scripted or stochastic.

    With ``scripted`` (node -> times) a node gets hungry at exactly its
    listed times and never otherwise.  Without it, nodes cycle think ->
    hungry -> eat: the first hunger is drawn from
    :data:`INITIAL_DELAY_RANGE`, each later one a think time after the
    node finishes eating, both from the node's ("workload", node_id)
    substream — so a node's draws do not depend on the runtime, or on
    which process hosts it.

    Per-node substreams are *not* materialized at attach time: a
    memoized ``random.Random`` costs ~2.5 KB, and a city-scale run
    attaches hundreds of thousands of nodes of which many never finish
    a single critical section.  The attach-time initial-delay draw
    instead comes from one reusable scratch RNG seeded with the
    substream's seed (``uniform`` consumes exactly one underlying
    ``random()`` call), and the memoized stream is created lazily at a
    node's first ``_on_done_eating`` — fast-forwarded past that one
    attach draw — so every value drawn is bit-identical to the eager
    scheme.
    """

    def __init__(
        self,
        runtime,
        at: Callable[..., Any],
        rng_source,
        think_range: Tuple[float, float] = (1.0, 5.0),
        scripted: Optional[Dict[int, Iterable[float]]] = None,
    ) -> None:
        lo, hi = think_range
        if not 0 <= lo <= hi:
            raise ConfigurationError(f"bad think range {think_range}")
        self._runtime = runtime
        self._at = at
        self._rng_source = rng_source
        self.think_range = (lo, hi)
        self._scripted: Optional[Dict[int, List[float]]] = None
        if scripted is not None:
            self._scripted = {
                node: sorted(times) for node, times in scripted.items()
            }
        # Reusable scratch RNG for attach-time draws (re-seeded per
        # node); the memoized per-node substream appears lazily in
        # _on_done_eating.
        self._scratch = random.Random()

    def attach_all(self, harnesses: Iterable[NodeHarness]) -> None:
        """Schedule every node's scripted or first stochastic hunger."""
        at = self._at
        hungry = NodeHarness.become_hungry
        if self._scripted is not None:
            for harness in harnesses:
                for time in self._scripted.get(harness.node_id, ()):
                    at(time, "hungry", hungry, harness)
            return
        on_done = self._on_done_eating
        scratch = self._scratch
        seed = scratch.seed
        uniform = scratch.uniform
        ilo, ihi = INITIAL_DELAY_RANGE
        stream_seed = self._rng_source.stream_seed
        now = self._runtime.now
        for harness in harnesses:
            harness.on_done_eating = on_done
            seed(stream_seed("workload", harness.node_id))
            at(now + uniform(ilo, ihi), "hungry", hungry, harness)

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
        self._at(self._runtime.now + think, "hungry",
                 NodeHarness.become_hungry, harness)
