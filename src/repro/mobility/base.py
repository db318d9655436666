"""Mobility episodes and the controller executing them.

Episodes run on the kinetic engine (:mod:`repro.mobility.kinetic`): it
schedules exact link-crossing certificates and touches the topology
only when a link can actually change, so link events fire at the
analytic crossing instants of the continuous trajectory.  Runs are
deterministic for a fixed seed (models draw from per-node RNG
streams).  A controller that walks nodes in fixed hops survives as the
tests' oracle (``FixedStepController`` in ``tests/oracles/``): at every
quiescent instant it lands on the same positions and link sets.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.mobility.kinetic import KineticEngine
from repro.net.geometry import Point
from repro.net.linklayer import LinkLayer
from repro.net.topology import DynamicTopology
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority
from repro.sim.trace import TraceLog, live_trace


@dataclass(frozen=True)
class Episode:
    """One movement episode: travel to ``destination`` at ``speed``.

    ``start_delay`` is measured from the moment the model is consulted.
    A non-positive ``speed`` means an instantaneous relocation
    (teleport) — used by scripted scenarios that only care about the
    before/after topologies, not the path.
    """

    start_delay: float
    destination: Point
    speed: float

    def __post_init__(self) -> None:
        if self.start_delay < 0:
            raise ConfigurationError(
                f"episode start_delay must be >= 0, got {self.start_delay}"
            )


class MobilityModel(abc.ABC):
    """Produces the next movement episode for a node, or None to rest."""

    @abc.abstractmethod
    def next_episode(
        self, node_id: int, now: float, topology: DynamicTopology, rng
    ) -> Optional[Episode]:
        """Return the node's next episode, or None if it stays put forever."""


class MobilityController:
    """Executes mobility models against the topology and link layer.

    One controller serves the whole network; each node may have its own
    model.  All position updates run at :data:`EventPriority.TOPOLOGY`
    so that link indications precede same-instant protocol events.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: DynamicTopology,
        linklayer: LinkLayer,
        rng_source,
        trace: Optional[TraceLog] = None,
        probes=None,
    ) -> None:
        self._sim = sim
        self._topology = topology
        self._linklayer = linklayer
        self._rng_source = rng_source
        self._trace = live_trace(trace)
        self._kinetic = KineticEngine(sim, topology, linklayer, probes=probes)
        self._models: Dict[int, MobilityModel] = {}
        self._started = False

    # ------------------------------------------------------------------
    def attach(self, node_id: int, model: MobilityModel) -> None:
        """Give ``node_id`` a mobility model (replacing any previous one)."""
        self._models[node_id] = model
        if self._started:
            self._consult(node_id)

    def start(self) -> None:
        """Begin consulting every attached model."""
        self._started = True
        for node_id in sorted(self._models):
            self._consult(node_id)

    # ------------------------------------------------------------------
    # Direct episode execution (used by scripted scenarios and tests)
    # ------------------------------------------------------------------
    def move_node(self, node_id: int, destination: Point, speed: float) -> None:
        """Start moving a node right now (outside any model schedule).

        Speed 0 relocates it instantly (still flagged as a move).
        """
        self._begin_episode(node_id, Episode(0.0, destination, speed),
                            resume_model=False)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def position_now(self, node_id: int) -> Point:
        """The node's true current position, mid-flight aware.

        A flying node's topology position is materialized lazily, so
        this consults the motion record.
        """
        return self._kinetic._true_position(node_id, self._sim.now)

    # ------------------------------------------------------------------
    def _consult(self, node_id: int) -> None:
        if self._linklayer.is_crashed(node_id):
            return
        model = self._models.get(node_id)
        if model is None:
            return
        rng = self._rng_source.stream("mobility", node_id)
        episode = model.next_episode(node_id, self._sim.now, self._topology, rng)
        if episode is None:
            return
        self._sim.schedule(
            episode.start_delay,
            self._begin_episode,
            node_id,
            episode,
            True,
            priority=EventPriority.TOPOLOGY,
        )

    def note_crash(self, node_id: int) -> None:
        """Failure hook: freeze a mid-flight node at its exact position.

        Wired by the runtime's crash injector; the true position is
        pinned at the crash instant.
        """
        self._kinetic.note_crash(node_id)

    def stats(self) -> Dict[str, object]:
        """Mobility-plane counters."""
        return self._kinetic.stats()

    def _begin_episode(
        self, node_id: int, episode: Episode, resume_model: bool = True
    ) -> None:
        if self._linklayer.is_crashed(node_id):
            return
        self._linklayer.set_moving(node_id, True)
        arrived = self._kinetic.launch(
            node_id,
            episode.destination,
            episode.speed,
            partial(self._finish_episode, node_id, resume_model),
        )
        if arrived:
            self._finish_episode(node_id, resume_model)

    def _finish_episode(self, node_id: int, resume_model: bool) -> None:
        self._linklayer.set_moving(node_id, False)
        if self._trace is not None:
            pos = self._topology.position(node_id)
            self._trace.record(
                self._sim.now, "move.arrived", node_id, x=pos.x, y=pos.y
            )
        if resume_model:
            self._consult(node_id)
