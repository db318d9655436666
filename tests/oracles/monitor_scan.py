"""Whole-network invariant monitors: the scoped monitors' oracle.

:mod:`repro.explore.monitors` re-checks, after each event, only the
nodes that event touched.  It is only allowed to do so because it
returns exactly what these full scans return: every ``check()`` body
below walks every link (or every node) after every event, as the
monitors did before they were scoped.  :class:`ScanSuite` runs them as
an engine listener that records the first violation and never stops
the engine, so it can ride along any run as a second opinion.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.core.doorway import FORK_SYNC, SYNC_DOORWAYS
from repro.core.states import NodeState
from repro.errors import ConfigurationError
from repro.explore.monitors import Violation
from repro.obs.watchdog import StarvationWatchdog


class LinkPairs:
    """The ``(a, b, harness_a, harness_b)`` walk of the pair monitors.

    Only links with both endpoint harnesses hosted here are listed,
    rebuilt once per topology ``version`` (afresh on every call for a
    topology without one).
    """

    def __init__(self, simulation) -> None:
        self._simulation = simulation
        self._version = None
        self._pairs: List[Tuple[int, int, Any, Any]] = []

    def __call__(self) -> List[Tuple[int, int, Any, Any]]:
        topology = self._simulation.topology
        version = getattr(topology, "version", None)
        if version is None or version != self._version:
            get = self._simulation.harnesses.get
            candidates = ((a, b, get(a), get(b)) for a, b in topology.links())
            self._pairs = [
                pair for pair in candidates
                if pair[2] is not None and pair[3] is not None
            ]
            self._version = version
        return self._pairs


class ScanMonitor:
    """Base class: attach to a built simulation, scan after each event."""

    name = "invariant"

    def __init__(self, params: Optional[Dict[str, Any]] = None) -> None:
        self.params: Dict[str, Any] = dict(params or {})

    def attach(self, simulation) -> None:
        self.simulation = simulation
        self._link_pairs = LinkPairs(simulation)

    def check(self) -> Optional[Dict[str, Any]]:
        return None

    def final(self) -> Optional[Dict[str, Any]]:
        return None

    def _algorithms(self):
        for node_id, harness in self.simulation.harnesses.items():
            yield node_id, harness.algorithm


class ExclusionScan(ScanMonitor):
    name = "exclusion"

    def check(self) -> Optional[Dict[str, Any]]:
        for a, b, harness_a, harness_b in self._link_pairs():
            if (harness_a.state is NodeState.EATING
                    and harness_b.state is NodeState.EATING):
                return {"link": [a, b]}
        return None


class ForkUniquenessScan(ScanMonitor):
    name = "fork-uniqueness"

    def check(self) -> Optional[Dict[str, Any]]:
        for a, b, harness_a, harness_b in self._link_pairs():
            forks_a = getattr(harness_a.algorithm, "forks", None)
            forks_b = getattr(harness_b.algorithm, "forks", None)
            if forks_a is None or forks_b is None:
                continue
            if forks_a.holds(b) and forks_b.holds(a):
                return {"link": [a, b]}
        return None


class DoorwayEntryScan(ScanMonitor):
    name = "doorway-entry"

    def attach(self, simulation) -> None:
        super().attach(simulation)
        self._behind: Dict[int, FrozenSet[str]] = {}
        for node_id, alg in self._algorithms():
            doorways = getattr(alg, "doorways", None)
            if doorways is not None:
                self._behind[node_id] = doorways.behind_set()

    def check(self) -> Optional[Dict[str, Any]]:
        violation = None
        for node_id in self._behind:
            doorways = self.simulation.harnesses[node_id].algorithm.doorways
            now_behind = doorways.behind_set()
            if now_behind == self._behind[node_id]:
                continue
            fresh = now_behind - self._behind[node_id]
            self._behind[node_id] = now_behind
            if violation is not None:
                continue
            for doorway in fresh & SYNC_DOORWAYS:
                peers = doorways.peers_behind(doorway)
                if peers:
                    violation = {
                        "node": node_id,
                        "doorway": doorway,
                        "peers_behind": sorted(peers),
                    }
                    break
        return violation


class ReturnPathScan(ScanMonitor):
    name = "return-path"

    def attach(self, simulation) -> None:
        super().attach(simulation)
        self._snapshots: Dict[int, Dict[str, Any]] = {}
        for node_id in simulation.harnesses:
            self._snapshots[node_id] = self._snapshot(node_id)

    def _snapshot(self, node_id: int) -> Dict[str, Any]:
        harness = self.simulation.harnesses[node_id]
        alg = harness.algorithm
        doorways = getattr(alg, "doorways", None)
        neighbors = harness.neighbors()
        return {
            "neighbors": neighbors,
            "behind_sdf": (doorways.is_behind(FORK_SYNC)
                           if doorways is not None else False),
            "holds": {peer: alg.forks.holds(peer) for peer in neighbors}
                     if getattr(alg, "forks", None) is not None else {},
            "colors": dict(getattr(alg, "colors", {})),
            "my_color": getattr(alg, "my_color", None),
            "returns": getattr(alg, "return_paths_taken", 0),
            "crashed": harness.crashed,
        }

    def check(self) -> Optional[Dict[str, Any]]:
        violation = None
        for node_id, prev in list(self._snapshots.items()):
            harness = self.simulation.harnesses[node_id]
            snapshot = self._snapshot(node_id)
            self._snapshots[node_id] = snapshot
            current = snapshot["neighbors"]
            if current == prev["neighbors"] or violation is not None:
                continue
            departed = prev["neighbors"] - current
            arrived = current - prev["neighbors"]
            if len(departed) != 1 or arrived:
                continue
            (peer,) = departed
            peer_color = prev["colors"].get(peer)
            if (
                prev["behind_sdf"]
                and not prev["crashed"]
                and not harness.crashed
                and not prev["holds"].get(peer, False)
                and peer_color is not None
                and prev["my_color"] is not None
                and peer_color < prev["my_color"]
                and snapshot["returns"] <= prev["returns"]
            ):
                violation = {
                    "node": node_id,
                    "departed_peer": peer,
                    "peer_color": peer_color,
                    "my_color": prev["my_color"],
                }
        return violation


class PriorityScan(ScanMonitor):
    name = "priority"

    def __init__(self, params: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(params)
        self.check_cycles = bool(self.params.get("cycles", True))

    def check(self) -> Optional[Dict[str, Any]]:
        edges: Dict[int, List[int]] = {}
        for a, b, harness_a, harness_b in self._link_pairs():
            alg_a = harness_a.algorithm
            alg_b = harness_b.algorithm
            higher_a = getattr(alg_a, "higher", None)
            higher_b = getattr(alg_b, "higher", None)
            if higher_a is None or higher_b is None:
                continue
            if higher_a.get(b) is False and higher_b.get(a) is False:
                return {"kind": "antisymmetry", "link": [a, b]}
            if not self.check_cycles:
                continue
            if higher_a.get(b) and not higher_b.get(a):
                edges.setdefault(a, []).append(b)
            elif higher_b.get(a) and not higher_a.get(b):
                edges.setdefault(b, []).append(a)
        cycle = _find_cycle(edges)
        if cycle is not None:
            return {"kind": "cycle", "cycle": cycle}
        return None


def _find_cycle(edges: Dict[int, List[int]]) -> Optional[List[int]]:
    """First directed cycle in ``edges`` (DFS with a grey set), or None."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in edges}
    parent: Dict[int, int] = {}
    for root in edges:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(edges.get(root, ())))]
        color[root] = GREY
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if color.get(child, WHITE) == GREY:
                    cycle = [child, node]
                    walk = node
                    while walk != child:
                        walk = parent[walk]
                        cycle.append(walk)
                    cycle.reverse()
                    return cycle
                if color.get(child, WHITE) == WHITE:
                    color[child] = GREY
                    parent[child] = node
                    stack.append((child, iter(edges.get(child, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


class StalePriorityScan(ScanMonitor):
    name = "stale-priority"

    def __init__(self, params: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(params)
        if "bound" not in self.params:
            raise ConfigurationError("stale-priority monitor needs a bound")
        self.bound = float(self.params["bound"])

    def attach(self, simulation) -> None:
        super().attach(simulation)
        self._prev_state: Dict[int, NodeState] = {
            node_id: harness.state
            for node_id, harness in simulation.harnesses.items()
        }
        self._obligations: Dict[Tuple[int, int], float] = {}

    def check(self) -> Optional[Dict[str, Any]]:
        sim = self.simulation
        now = sim.sim.now
        harnesses = sim.harnesses
        has_link = sim.topology.has_link

        # Discharge or time out the outstanding obligations.
        violation = None
        for (i, j), since in list(self._obligations.items()):
            hungry = harnesses[i]
            thinker = harnesses[j]
            higher = getattr(hungry.algorithm, "higher", {})
            if (
                higher.get(j) is not True
                or thinker.state is not NodeState.THINKING
                or not has_link(i, j)
                or hungry.crashed
                or thinker.crashed
            ):
                del self._obligations[(i, j)]
                continue
            if violation is None and now - since > self.bound:
                violation = {
                    "hungry_node": i,
                    "thinking_node": j,
                    "since": since,
                    "bound": self.bound,
                }

        # Open new obligations at hunger onsets.
        for node_id, harness in harnesses.items():
            prev = self._prev_state.get(node_id)
            self._prev_state[node_id] = harness.state
            if (harness.state is not NodeState.HUNGRY
                    or prev is NodeState.HUNGRY):
                continue
            higher = getattr(harness.algorithm, "higher", None)
            if higher is None or harness.crashed:
                continue
            for peer in harness.neighbors():
                other = harnesses.get(peer)
                if (
                    other is not None
                    and not other.crashed
                    and other.state is NodeState.THINKING
                    and higher.get(peer) is True
                ):
                    self._obligations.setdefault((node_id, peer), now)
        return violation

    def final(self) -> Optional[Dict[str, Any]]:
        return self.check()


class ProgressScan(ScanMonitor):
    name = "progress"

    def __init__(self, params: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(params)
        if "threshold" not in self.params:
            raise ConfigurationError("progress monitor needs a threshold")
        self.threshold = float(self.params["threshold"])
        self.exempt_radius = int(self.params.get("exempt_radius", 0))

    def attach(self, simulation) -> None:
        super().attach(simulation)
        self._watchdog = StarvationWatchdog(
            simulation.sim, simulation.metrics, threshold=self.threshold
        )

    def _exempt(self, node: int) -> bool:
        crashed = list(self.simulation.metrics.crashed)
        if not crashed or self.exempt_radius <= 0:
            return False
        topology = self.simulation.topology
        seen = set(crashed)
        frontier = deque((c, 0) for c in crashed)
        while frontier:
            current, distance = frontier.popleft()
            if current == node:
                return True
            if distance >= self.exempt_radius:
                continue
            for peer in topology.neighbors(current):
                if peer not in seen:
                    seen.add(peer)
                    frontier.append((peer, distance + 1))
        return False

    def _judge(self) -> Optional[Dict[str, Any]]:
        for warning in self._watchdog._check(self.simulation.sim.now):
            if not self._exempt(warning.node):
                return {
                    "node": warning.node,
                    "hungry_since": warning.hungry_since,
                    "duration": warning.duration,
                    "threshold": self.threshold,
                }
        return None

    def check(self) -> Optional[Dict[str, Any]]:
        return self._judge()

    def final(self) -> Optional[Dict[str, Any]]:
        return self._judge()


#: name -> full-scan class, mirroring ``MONITOR_BUILDERS``.
SCAN_BUILDERS = {
    monitor.name: monitor
    for monitor in (
        ExclusionScan, ForkUniquenessScan, DoorwayEntryScan, ReturnPathScan,
        PriorityScan, StalePriorityScan, ProgressScan,
    )
}


def build_scan_monitors(specs: List[Dict[str, Any]]) -> List[ScanMonitor]:
    """Full-scan twins of ``build_monitors(specs)``, in spec order."""
    return [
        SCAN_BUILDERS[spec["name"]](spec.get("params") or {})
        for spec in specs
    ]


class ScanSuite:
    """Every full scan after every event; records, never stops.

    ``violation`` is what the pre-scoping suite would have recorded:
    the first event at which any scan fires, and the first firing scan
    in spec order.  ``finalize`` mirrors the suite's end-of-run pass.
    """

    def __init__(self, specs: List[Dict[str, Any]]) -> None:
        self.monitors = build_scan_monitors(specs)
        self.violation: Optional[Violation] = None
        self.checks = 0

    def attach(self, simulation) -> None:
        self._simulation = simulation
        for monitor in self.monitors:
            monitor.attach(simulation)
        simulation.sim.add_listener(self._on_event)

    def _judge(self, engine, final: bool) -> None:
        if self.violation is not None:
            return
        for monitor in self.monitors:
            self.checks += 1
            details = monitor.final() if final else monitor.check()
            if details is not None:
                self.violation = Violation(
                    monitor=monitor.name, step=engine.executed_events,
                    time=engine.now, details=details,
                )
                return

    def _on_event(self, engine) -> None:
        self._judge(engine, final=False)

    def finalize(self) -> None:
        self._judge(self._simulation.sim, final=True)
