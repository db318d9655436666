"""Fixed-step movement: the mobility plane's equivalence oracle.

:class:`~repro.mobility.base.MobilityController` runs every episode on
the kinetic engine, which touches the topology only at analytic link
crossings.  The plainest way to move a node is to walk it: one
``set_position`` per ``step_length`` of travel, each step an engine
event, link changes read off the resulting diffs.  That walk is this
module.  It is *not* bit-identical mid-flight — it quantizes motion to
hops and arrives one step early — so the contract the tests check is
the one both must share: the same destinations, and the same positions
and link sets (both equal to the ground truth) whenever every node is
at rest.

:func:`install` swaps it in for every :class:`Simulation` built
afterwards, the way ``tests/oracles/heap_queue.py`` swaps the queue.
"""

from __future__ import annotations

from typing import Dict

from repro.mobility.base import Episode, MobilityController
from repro.net.geometry import Point
from repro.sim.events import EventPriority


class FixedStepController(MobilityController):
    """A :class:`MobilityController` that steps nodes in fixed hops."""

    def __init__(self, sim, topology, linklayer, rng_source,
                 trace=None, probes=None, step_length: float = 0.25) -> None:
        super().__init__(sim, topology, linklayer, rng_source,
                         trace=trace, probes=probes)
        self._step_length = step_length
        self._probes = probes
        self._updates = 0
        self._arrivals = 0
        self._teleports = 0

    # ``position_now`` and ``note_crash`` stay inherited: the unused
    # kinetic engine has no motion records, so they read the (always
    # current) topology position and do nothing — a crashed node
    # freezes at its next step instead.

    def stats(self) -> Dict[str, object]:
        return {
            "position_updates": self._updates,
            "crossings_scheduled": 0,
            "crossing_events": 0,
            "horizon_events": 0,
            "arrivals": self._arrivals,
            "teleports": self._teleports,
        }

    def _begin_episode(self, node_id: int, episode: Episode,
                       resume_model: bool = True) -> None:
        if self._linklayer.is_crashed(node_id):
            return
        self._linklayer.set_moving(node_id, True)
        if episode.speed <= 0:
            self._teleports += 1
            self._move(node_id, episode.destination, "teleport")
            self._finish_episode(node_id, resume_model)
            return
        self._step(node_id, episode, resume_model)

    def _move(self, node_id: int, position: Point, reason: str) -> None:
        diff = self._topology.set_position(node_id, position)
        self._updates += 1
        if self._probes is not None:
            self._probes.note_mobility_update(reason)
        self._linklayer.apply_diff(diff)

    def _step(self, node_id: int, episode: Episode,
              resume_model: bool) -> None:
        if self._linklayer.is_crashed(node_id):
            # Crashed mid-flight: freeze in place and clear the flag.
            self._linklayer.set_moving(node_id, False)
            return
        current = self._topology.position(node_id)
        nxt = current.towards(episode.destination, self._step_length)
        self._move(node_id, nxt, "step")
        if nxt == episode.destination:
            self._arrivals += 1
            self._finish_episode(node_id, resume_model)
            return
        self._sim.schedule(
            self._step_length / episode.speed,
            self._step,
            node_id,
            episode,
            resume_model,
            priority=EventPriority.TOPOLOGY,
        )


def install(monkeypatch) -> None:
    """Every Simulation built from here on moves nodes in fixed steps."""
    monkeypatch.setattr(
        "repro.runtime.simulation.MobilityController", FixedStepController
    )
