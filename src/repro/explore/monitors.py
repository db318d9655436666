"""Online invariant monitors: the oracle side of adversarial exploration.

Each :class:`InvariantMonitor` checks one of the paper's claims after
every executed event (the engine's post-event listener hook, so a
monitor sees exactly the states the protocol can be observed in — the
simulator changes nothing between events).  The :class:`MonitorSuite`
stops the run at the first violation and records *where* it happened
(step = executed-event count), which is what makes violations exact
replay targets.

Monitors and the claims they check:

``exclusion``
    Local mutual exclusion itself: no link with both endpoints EATING.
``fork-uniqueness``
    Lemma 3: per link at most one endpoint holds the shared fork.
``doorway-entry``
    The synchronous-doorway guarantee (Chapter 4): a node may cross
    ``SDr``/``SDf`` only while it observes every neighbor outside.
    Catches the ``alg1-nodoorway`` ablation.
``return-path``
    Figure 5 lines 59-60: behind ``SDf``, losing a lower-colored
    neighbor whose fork we lack must trigger the return path.  Catches
    ``alg1-noreturn``.
``priority``
    Lemma 24 for Algorithm 2: the ``higher[]`` relation is
    antisymmetric (never both False across a link — both True is the
    legal switch-in-transit window) and the strict priority digraph is
    acyclic (the cycle half only for static scenarios; under link
    churn settled cycles are reachable and self-healing).
``stale-priority``
    The notification obligation (Algorithm 6 lines 1-5, 22-25): a
    thinking node cannot outrank a hungry neighbor for longer than a
    few message round trips.  Catches ``alg2-nonotify``.
``progress``
    Eventual progress, via the existing
    :class:`~repro.obs.watchdog.StarvationWatchdog` run in pull mode,
    with a crash-exemption radius for the paper's failure-locality
    allowance.

Monitors are rebuilt from ``{"name", "params"}`` specs recorded in
repro files (:data:`MONITOR_BUILDERS`), so a replay judges the run
with exactly the monitors that originally flagged it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.core.doorway import FORK_SYNC, SYNC_DOORWAYS
from repro.core.states import NodeState
from repro.errors import ConfigurationError
from repro.obs.watchdog import StarvationWatchdog


@dataclass
class Violation:
    """One invariant failure, pinned to an exact point in the run."""

    monitor: str
    step: int
    time: float
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "monitor": self.monitor,
            "step": self.step,
            "time": self.time,
            "details": self.details,
        }


class LinkPairs:
    """The ``(a, b, harness_a, harness_b)`` walk of the pair monitors.

    Only links with both endpoint harnesses hosted here are listed.  In
    a sharded run one endpoint of a boundary link may be a ghost (no
    local harness); the owning shard's monitor sees that node's state,
    so pair invariants straddling a boundary are checked by whichever
    shard owns both endpoints of a *conflict* — and an exclusion/fork
    conflict always has a real harness behind each eating or
    fork-holding endpoint on its own shard.

    The list is rebuilt once per topology ``version``, not once per
    event per monitor: the harness dict is fixed when the simulation is
    built (shard ownership is sticky) and ghosts arrive through the
    topology, which bumps the version.  A topology without a
    ``version`` (test fakes) is walked afresh on every call.
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


class InvariantMonitor:
    """Base class: attach to a built simulation, check after each event."""

    name = "invariant"

    def __init__(self, params: Optional[Dict[str, Any]] = None) -> None:
        self.params: Dict[str, Any] = dict(params or {})

    def spec(self) -> Dict[str, Any]:
        """JSON spec for repro files (rebuilt via MONITOR_BUILDERS)."""
        return {"name": self.name, "params": dict(self.params)}

    def attach(self, simulation) -> None:
        """Grab references and baseline snapshots before the run starts."""
        self.simulation = simulation
        self._link_pairs = LinkPairs(simulation)

    def check(self) -> Optional[Dict[str, Any]]:
        """Post-event check; violation details or None."""
        return None

    def final(self) -> Optional[Dict[str, Any]]:
        """End-of-run check (for liveness-style monitors)."""
        return None

    # -- shared helpers -------------------------------------------------
    def _algorithms(self):
        for node_id, harness in self.simulation.harnesses.items():
            yield node_id, harness.algorithm


class ExclusionMonitor(InvariantMonitor):
    """No two current neighbors eat at the same time."""

    name = "exclusion"

    def check(self) -> Optional[Dict[str, Any]]:
        for a, b, harness_a, harness_b in self._link_pairs():
            if (harness_a.state is NodeState.EATING
                    and harness_b.state is NodeState.EATING):
                return {"link": [a, b]}
        return None


class ForkUniquenessMonitor(InvariantMonitor):
    """Lemma 3: at most one endpoint of a link holds the shared fork."""

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


class DoorwayEntryMonitor(InvariantMonitor):
    """A sync-doorway cross requires every peer observed outside.

    The post-event snapshot of each node's ``behind_set()`` doubles as
    the pre-event state of the next event (nothing changes between
    events), so a diff pinpoints fresh crossings.  A node's ``L`` view
    cannot change between its cross and this listener (one delivery
    per event), so ``peers_behind`` at check time is exactly the view
    the entry code decided on.
    """

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


class ReturnPathMonitor(InvariantMonitor):
    """Figure 5's return path fires whenever its trigger condition holds.

    Pre-event state is the previous post-event snapshot.  Evaluated
    only for single-departure events with no simultaneous link-up for
    the node (a mover exiting all doorways legitimately skips the
    return path), mirroring ``Algorithm1.on_link_down``.
    """

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
            # Refresh every node every event: doorway position, fork
            # holdings and colors all evolve without the neighbor set
            # changing, and the next link-down must judge against the
            # state just before it.
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


class PriorityMonitor(InvariantMonitor):
    """Lemma 24: ``higher[]`` antisymmetry and priority-graph acyclicity.

    Both directions True is the legal switch-in-transit window; both
    False would let two neighbors each treat the other as low — the
    deadlock door Algorithm 2's invariant keeps shut.  The strict
    digraph (edge a->b when ``higher_a[b]`` and not ``higher_b[a]``,
    read "b outranks a") must stay acyclic.

    The acyclicity half is a *static-case* invariant and is switched
    off with ``params={"cycles": False}`` for mobility scenarios: an
    abdication (Switch) in flight across a link formation can settle
    *after* the mover's link-up sink-making and re-raise it, weaving a
    legitimate cycle out of three individually-correct steps (the
    campaigns found exactly this — see docs/exploration.md).  Such a
    cycle is healed by the notification mechanism at the next
    staggered hunger onset, so under churn the standing hazard is
    starvation, which the progress monitor owns.  Antisymmetry is a
    settled per-link invariant and stays on everywhere.
    """

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


class StalePriorityMonitor(InvariantMonitor):
    """The notification obligation: a hunger onset next to a thinking
    priority-holder must clear the stale priority within ``bound``.

    When node *i* turns HUNGRY while neighbor *j* is THINKING and
    ``higher_i[j]`` is True, clean Algorithm 2's Line-2 notification
    makes *j* switch below all its neighbors, so *i* observes
    ``higher_i[j] is False`` within one notification + switch round
    trip (about ``2 * nu``; links are FIFO, so the notification lands
    at *j* after any in-flight switch of *i*'s own and *j* judges it
    against current priorities).  The obligation discharges on
    observing the flag False, on *j* leaving THINKING, on the link
    disappearing, or on a crash at either end — but never on *i*'s
    own state changes: a thinking neighbor bypass-grants its forks, so
    the hungry node eats fine with or without the notification, and
    eating must not count as discharge.  An obligation outstanding
    past ``bound`` (default three message bounds) is the
    ``alg2-nonotify`` signature — *j* keeps its stale priority and
    will ambush *i* whenever it wakes.  Must not be installed for
    mobility scenarios, where a link-up legitimately grants standing
    priority with no re-notification.
    """

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


class ProgressMonitor(InvariantMonitor):
    """Eventual progress via the starvation watchdog in pull mode.

    ``threshold`` is the hungry duration that counts as starvation;
    ``exempt_radius`` excuses nodes within that topology distance of a
    crashed node (the paper's failure-locality allowance — radius 2
    for Algorithm 2 by Theorem 25).
    """

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
        for warning in self._watchdog.check_now():
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


class MonitorSuite:
    """Runs a set of monitors from the engine's post-event listener.

    Stops the simulation at the first violation; ``violation`` then
    pins the monitor, step and time, which replay verifies against.
    """

    def __init__(self, monitors: List[InvariantMonitor]) -> None:
        self.monitors = monitors
        self.violation: Optional[Violation] = None
        self.checks = 0

    def attach(self, simulation) -> None:
        self._simulation = simulation
        # One link-pair walk per topology version for the whole suite.
        link_pairs = LinkPairs(simulation)
        for monitor in self.monitors:
            monitor.attach(simulation)
            monitor._link_pairs = link_pairs
        simulation.sim.add_listener(self._on_event)

    def specs(self) -> List[Dict[str, Any]]:
        return [monitor.spec() for monitor in self.monitors]

    def _record(self, monitor: InvariantMonitor,
                details: Dict[str, Any], engine) -> None:
        self.violation = Violation(
            monitor=monitor.name,
            step=engine.executed_events,
            time=engine.now,
            details=details,
        )

    def _on_event(self, engine) -> None:
        if self.violation is not None:
            return
        for monitor in self.monitors:
            self.checks += 1
            details = monitor.check()
            if details is not None:
                self._record(monitor, details, engine)
                engine.stop()
                return

    def finalize(self) -> None:
        """Run end-of-run checks (liveness monitors)."""
        if self.violation is not None:
            return
        engine = self._simulation.sim
        for monitor in self.monitors:
            self.checks += 1
            details = monitor.final()
            if details is not None:
                self._record(monitor, details, engine)
                return


#: name -> builder(params) for rebuilding monitors from repro-file specs.
MONITOR_BUILDERS = {
    "exclusion": ExclusionMonitor,
    "fork-uniqueness": ForkUniquenessMonitor,
    "doorway-entry": DoorwayEntryMonitor,
    "return-path": ReturnPathMonitor,
    "priority": PriorityMonitor,
    "stale-priority": StalePriorityMonitor,
    "progress": ProgressMonitor,
}


def build_monitors(specs: List[Dict[str, Any]]) -> List[InvariantMonitor]:
    """Instantiate monitors from ``{"name", "params"}`` specs."""
    monitors = []
    for spec in specs:
        name = spec.get("name")
        builder = MONITOR_BUILDERS.get(name)
        if builder is None:
            raise ConfigurationError(f"unknown monitor {name!r}")
        monitors.append(builder(spec.get("params") or {}))
    return monitors


def default_monitor_specs(scenario: Dict[str, Any],
                          until: float) -> List[Dict[str, Any]]:
    """The monitor set a fuzz campaign installs for one scenario.

    Safety monitors always run.  Algorithm-specific monitors follow the
    registry-name prefix; progress follows the paper's failure-locality
    claims — radius-2 exemption for Algorithm 2 under crashes, disabled
    for Algorithm 1 under crashes (its locality is unbounded), plain
    starvation check otherwise.
    """
    algorithm = str(scenario.get("algorithm", ""))
    nu = float(scenario.get("bounds", {}).get("nu", 1.0))
    crashes = scenario.get("crashes") or []
    mobile = "mobility" in scenario
    specs: List[Dict[str, Any]] = [
        {"name": "exclusion", "params": {}},
        {"name": "fork-uniqueness", "params": {}},
    ]
    if algorithm.startswith("alg1"):
        specs.append({"name": "doorway-entry", "params": {}})
        specs.append({"name": "return-path", "params": {}})
    if algorithm.startswith("alg2"):
        # Under mobility the cycle half of the priority check is off:
        # in-flight abdications crossing link formations weave settled
        # (but self-healing) cycles — see PriorityMonitor's docstring.
        priority_params = {} if not mobile else {"cycles": False}
        specs.append({"name": "priority", "params": priority_params})
        if not mobile:
            specs.append(
                {"name": "stale-priority", "params": {"bound": 3.0 * nu}}
            )
    if not crashes:
        specs.append(
            {"name": "progress", "params": {"threshold": 0.6 * until}}
        )
    elif algorithm.startswith("alg2"):
        specs.append(
            {
                "name": "progress",
                "params": {"threshold": 0.6 * until, "exempt_radius": 2},
            }
        )
    return specs
