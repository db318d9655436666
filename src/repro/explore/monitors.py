"""Online invariant monitors: the oracle side of adversarial exploration.

Each :class:`InvariantMonitor` checks one of the paper's claims after
every executed event (the engine's post-event listener hook, so a
monitor sees exactly the states the protocol can be observed in — the
simulator changes nothing between events).  The :class:`MonitorSuite`
stops the run at the first violation and records *where* it happened
(step = executed-event count), which is what makes violations exact
replay targets.

Checks are event-scoped.  An event changes the protocol state only of
the nodes whose code it ran, plus both endpoints of any link it formed
or broke; the suite collects those nodes in a *dirty set* (filled by
the :class:`~repro.runtime.node.NodeHarness` entry points and a
link-layer observer) and hands them to each monitor, ascending.
Since the run stops at the first violation, every invariant held
everywhere before the event, so a new violation must touch a dirty
node: each monitor does O(degree) work per dirty node and still
reports exactly what a whole-network scan in link order would have
(the full scans live on as the test-suite oracle,
``tests/oracles/monitor_scan.py``).  The first check after
:meth:`MonitorSuite.attach` treats every node as dirty.

Monitors and the claims they check:

``exclusion``
    Local mutual exclusion itself: no link with both endpoints EATING,
    as the simulation's always-on safety checker flags it.
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
    Eventual progress: no hungry interval outlives a threshold, with a
    crash-exemption radius for the paper's failure-locality allowance.

Monitors are rebuilt from ``{"name", "params"}`` specs recorded in
repro files (:data:`MONITOR_BUILDERS`), so a replay judges the run
with exactly the monitors that originally flagged it.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple,
)

from repro.core.doorway import FORK_SYNC, SYNC_DOORWAYS
from repro.core.states import NodeState
from repro.errors import ConfigurationError
from repro.harness.config_io import config_from_dict
from repro.metrics.safety import ignore_violation


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


def _lower(found: Optional[Tuple[int, int]], a: int,
           b: int) -> Tuple[int, int]:
    """The lower of ``found`` and link ``{a, b}`` as ``(low, high)``.

    Pair monitors report the lowest offending link touching a dirty
    node: the one a scan in sorted link order meets first.
    """
    link = (a, b) if a < b else (b, a)
    return link if found is None or link < found else found


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

    def check(self, nodes: List[int]) -> Optional[Dict[str, Any]]:
        """Post-event check of the dirty ``nodes`` (ascending);
        violation details or None."""
        return None

    def final(self, nodes: List[int]) -> Optional[Dict[str, Any]]:
        """End-of-run check (for liveness-style monitors)."""
        return None


class ExclusionMonitor(InvariantMonitor):
    """No two current neighbors eat at once: reports the lowest link
    the simulation's safety checker flagged during the event."""

    name = "exclusion"

    def attach(self, simulation) -> None:
        super().attach(simulation)
        self._found: Optional[Tuple[int, int]] = None
        simulation.safety.flag = self._flag

    def _flag(self, time: float, a: int, b: int) -> None:
        self._found = _lower(self._found, a, b)

    def check(self, nodes: List[int]) -> Optional[Dict[str, Any]]:
        found, self._found = self._found, None
        return None if found is None else {"link": list(found)}


class ForkUniquenessMonitor(InvariantMonitor):
    """Lemma 3: at most one endpoint of a link holds the shared fork."""

    name = "fork-uniqueness"

    def check(self, nodes: List[int]) -> Optional[Dict[str, Any]]:
        harnesses = self.simulation.harnesses
        found = None
        for a in nodes:
            harness = harnesses[a]
            forks = getattr(harness.algorithm, "forks", None)
            if forks is None:
                continue
            for b in harness.neighbors():
                if not forks.holds(b):
                    continue
                other_forks = getattr(harnesses[b].algorithm, "forks", None)
                if other_forks is not None and other_forks.holds(a):
                    found = _lower(found, a, b)
        return None if found is None else {"link": list(found)}


class DoorwayEntryMonitor(InvariantMonitor):
    """A sync-doorway cross requires every peer observed outside.

    Each node's last ``behind_set()`` doubles as the pre-event state of
    the next event that touches it (nothing else changes it), so a
    diff pinpoints fresh crossings.  A node's ``L`` view cannot change
    between its cross and this listener (one delivery per event), so
    ``peers_behind`` at check time is exactly the view the entry code
    decided on.
    """

    name = "doorway-entry"

    def attach(self, simulation) -> None:
        super().attach(simulation)
        self._behind: Dict[int, FrozenSet[str]] = {}
        for node_id, harness in simulation.harnesses.items():
            doorways = getattr(harness.algorithm, "doorways", None)
            if doorways is not None:
                self._behind[node_id] = doorways.behind_set()

    def check(self, nodes: List[int]) -> Optional[Dict[str, Any]]:
        harnesses = self.simulation.harnesses
        violation = None
        for node_id in nodes:
            before = self._behind.get(node_id)
            if before is None:
                continue
            doorways = harnesses[node_id].algorithm.doorways
            now_behind = doorways.behind_set()
            if now_behind == before:
                continue
            self._behind[node_id] = now_behind
            if violation is not None:
                continue
            for doorway in (now_behind - before) & SYNC_DOORWAYS:
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

    Pre-event state is the node's snapshot from the last event that
    touched it.  Evaluated only for single-departure events with no
    simultaneous link-up for the node (a mover exiting all doorways
    legitimately skips the return path), mirroring
    ``Algorithm1.on_link_down``.
    """

    name = "return-path"

    def attach(self, simulation) -> None:
        super().attach(simulation)
        self._snapshots: Dict[int, Dict[str, Any]] = {
            node_id: self._snapshot(node_id)
            for node_id in simulation.harnesses
        }

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

    def check(self, nodes: List[int]) -> Optional[Dict[str, Any]]:
        violation = None
        for node_id in nodes:
            prev = self._snapshots[node_id]
            # Refresh every touched node: doorway position, fork
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
                and not snapshot["crashed"]
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

    The digraph is kept as in- and out-edge sets, and each check
    recomputes only the edges incident to dirty nodes.  The graph was
    acyclic before the event, so any cycle now uses an edge the event
    added: a cycle exists iff some new edge's tail is reachable from
    its head, which a depth-first walk backwards from the new tails
    decides.  Under Algorithm 2 a new edge's tail is a node that just
    switched below its neighbors, so that walk is short.  Only when it
    finds a cycle is the whole graph searched again, in the order a
    scan over sorted links would build it, so the reported cycle is
    the one such a scan reports.

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

    def attach(self, simulation) -> None:
        super().attach(simulation)
        # Empty until the first check, which sees every node dirty.
        self._out: Dict[int, Set[int]] = defaultdict(set)
        self._in: Dict[int, Set[int]] = defaultdict(set)
        #: node -> the neighbor set its edges were last derived from.
        self._derived_from: Dict[int, FrozenSet[int]] = {}

    def _unlink(self, a: int, b: int) -> None:
        """Drop the edge between ``a`` and ``b``, whichever way it ran."""
        self._out[a].discard(b)
        self._in[b].discard(a)
        self._out[b].discard(a)
        self._in[a].discard(b)

    def check(self, nodes: List[int]) -> Optional[Dict[str, Any]]:
        harnesses = self.simulation.harnesses
        cycles = self.check_cycles
        out, into = self._out, self._in
        found = None
        tails: List[int] = []
        for a in nodes:
            harness = harnesses[a]
            higher = getattr(harness.algorithm, "higher", None)
            if higher is None:
                continue
            neighbors = harness.neighbors()
            if cycles and neighbors is not self._derived_from.get(a):
                # Departed peers lose their edges.  The topology hands
                # out one cached set per neighborhood change, so an
                # unchanged neighborhood skips the sweep.
                self._derived_from[a] = neighbors
                for b in (out[a] | into[a]) - neighbors:
                    self._unlink(a, b)
            for b in neighbors:
                other_higher = getattr(harnesses[b].algorithm, "higher", None)
                if other_higher is None:
                    continue
                mine, theirs = higher.get(b), other_higher.get(a)
                if mine is False and theirs is False:
                    found = _lower(found, a, b)
                if not cycles:
                    continue
                if mine and not theirs:
                    tail, head = a, b
                elif theirs and not mine:
                    tail, head = b, a
                else:
                    tail = head = None
                if tail is not None and head in out[tail]:
                    continue
                self._unlink(a, b)
                if tail is not None:
                    out[tail].add(head)
                    into[head].add(tail)
                    tails.append(tail)
        if found is not None:
            return {"kind": "antisymmetry", "link": list(found)}
        if tails and _first_cycle(tails, into.__getitem__) is not None:
            return {"kind": "cycle", "cycle": self._scan_order_cycle()}
        return None

    def _scan_order_cycle(self) -> List[int]:
        """The cycle a DFS over the digraph, built in sorted link order,
        meets first."""
        keyed = sorted(
            (min(tail, head), max(tail, head), tail, head)
            for tail, heads in self._out.items()
            for head in heads
        )
        edges: Dict[int, List[int]] = {}
        for _, _, tail, head in keyed:
            edges.setdefault(tail, []).append(head)
        return _first_cycle(edges, lambda node: edges.get(node, ()))


def _first_cycle(roots: Iterable[int],
                 children: Callable[[int], Iterable[int]]
                 ) -> Optional[List[int]]:
    """First directed cycle a grey-set DFS from ``roots`` meets, or None.

    The cycle is listed along its edges, starting and ending at the
    node the DFS reached it by.
    """
    GREY, BLACK = 1, 2
    color: Dict[int, int] = {}
    parent: Dict[int, int] = {}
    for root in roots:
        if root in color:
            continue
        color[root] = GREY
        stack = [(root, iter(children(root)))]
        while stack:
            node, pending = stack[-1]
            for child in pending:
                seen = color.get(child)
                if seen == GREY:
                    cycle = [child, node]
                    walk = node
                    while walk != child:
                        walk = parent[walk]
                        cycle.append(walk)
                    cycle.reverse()
                    return cycle
                if seen is None:
                    color[child] = GREY
                    parent[child] = node
                    stack.append((child, iter(children(child))))
                    break
            else:
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

    Every discharge condition reads only the two endpoints and their
    link, so obligations are indexed by endpoint and re-evaluated only
    when one is dirty.  They open in time order, so the oldest open
    obligation is the only one that can be the first to time out.
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
        #: (hungry, thinking) -> opening time, in opening order.
        self._obligations: Dict[Tuple[int, int], float] = {}
        self._by_node: Dict[int, Set[Tuple[int, int]]] = defaultdict(set)

    def check(self, nodes: List[int]) -> Optional[Dict[str, Any]]:
        sim = self.simulation
        now = sim.sim.now
        harnesses = sim.harnesses
        has_link = sim.topology.has_link
        obligations = self._obligations
        by_node = self._by_node

        # Discharge the obligations a dirty node can have discharged.
        for node_id in nodes:
            for pair in list(by_node.get(node_id, ())):
                i, j = pair
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
                    del obligations[pair]
                    by_node[i].discard(pair)
                    by_node[j].discard(pair)

        # Time out the oldest outstanding obligation.
        violation = None
        oldest = next(iter(obligations.items()), None)
        if oldest is not None and now - oldest[1] > self.bound:
            (i, j), since = oldest
            violation = {
                "hungry_node": i,
                "thinking_node": j,
                "since": since,
                "bound": self.bound,
            }

        # Open new obligations at hunger onsets.
        for node_id in nodes:
            harness = harnesses[node_id]
            prev = self._prev_state.get(node_id)
            self._prev_state[node_id] = harness.state
            if (harness.state is not NodeState.HUNGRY
                    or prev is NodeState.HUNGRY):
                continue
            higher = getattr(harness.algorithm, "higher", None)
            if higher is None or harness.crashed:
                continue
            for peer in harness.neighbors():
                other = harnesses[peer]
                pair = (node_id, peer)
                if (
                    not other.crashed
                    and other.state is NodeState.THINKING
                    and higher.get(peer) is True
                    and pair not in obligations
                ):
                    obligations[pair] = now
                    by_node[node_id].add(pair)
                    by_node[peer].add(pair)
        return violation

    def final(self, nodes: List[int]) -> Optional[Dict[str, Any]]:
        return self.check(nodes)


class ProgressMonitor(InvariantMonitor):
    """Eventual progress: no hungry interval outlives ``threshold``.

    ``exempt_radius`` excuses nodes within that topology distance of a
    crashed node (the paper's failure-locality allowance — radius 2
    for Algorithm 2 by Theorem 25).

    Each hungry interval is judged exactly once, at the first check
    where its age exceeds the threshold.  Intervals begin (in time
    order) at dirty nodes, so their onsets queue up oldest first; a
    check pops every onset that has aged past the threshold, skips the
    intervals that have since ended, and judges the rest in node order.
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
        #: (since, node) per hungry interval, oldest first.
        self._onsets: deque = deque()
        #: node -> onset of its last queued interval.
        self._queued: Dict[int, float] = {}

    def _exempt(self, node: int) -> bool:
        crashed = self.simulation.metrics.crashed
        if not crashed or self.exempt_radius <= 0:
            return False
        return node in self.simulation.topology.distances_from(
            *sorted(crashed), limit=self.exempt_radius
        )

    def check(self, nodes: List[int]) -> Optional[Dict[str, Any]]:
        hungry_since = self.simulation.metrics.hungry_since
        fresh = []
        for node in nodes:
            since = hungry_since(node)
            if since is not None and self._queued.get(node) != since:
                self._queued[node] = since
                fresh.append((since, node))
        self._onsets.extend(sorted(fresh))

        now = self.simulation.sim.now
        onsets = self._onsets
        starving = []
        while onsets and now - onsets[0][0] > self.threshold:
            since, node = onsets.popleft()
            if hungry_since(node) == since:
                starving.append((node, since))
        for node, since in sorted(starving):
            if not self._exempt(node):
                return {
                    "node": node,
                    "hungry_since": since,
                    "duration": now - since,
                    "threshold": self.threshold,
                }
        return None

    def final(self, nodes: List[int]) -> Optional[Dict[str, Any]]:
        return self.check(nodes)


class MonitorSuite:
    """Runs a set of monitors from the engine's post-event listener.

    Stops the simulation at the first violation; ``violation`` then
    pins the monitor, step and time, which replay verifies against.
    Attaching takes the simulation's safety verdicts over: a monitored
    run reports them as ``exclusion`` violations instead of raising.
    """

    def __init__(self, monitors: List[InvariantMonitor]) -> None:
        self.monitors = monitors
        self.violation: Optional[Violation] = None
        self.checks = 0
        #: Nodes an event may have changed since the last check.
        self._dirty: Set[int] = set()

    def attach(self, simulation) -> None:
        self._simulation = simulation
        dirty = self._dirty
        dirty.update(simulation.harnesses)
        for harness in simulation.harnesses.values():
            harness.dirty = dirty
        simulation.linklayer.observers.append(self._on_link_event)
        simulation.safety.flag = ignore_violation
        for monitor in self.monitors:
            monitor.attach(simulation)
        simulation.sim.add_listener(self._on_event)

    def _on_link_event(self, kind: str, a: int, b: int) -> None:
        # Both endpoints, crashed ones included: their neighbor sets
        # changed even when their indications were skipped.
        self._dirty.add(a)
        self._dirty.add(b)

    def _take_dirty(self) -> List[int]:
        """The dirty nodes, ascending; empties the dirty set."""
        nodes = sorted(self._dirty)
        self._dirty.clear()
        return nodes

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
        nodes = self._take_dirty()
        for monitor in self.monitors:
            self.checks += 1
            details = monitor.check(nodes)
            if details is not None:
                self._record(monitor, details, engine)
                engine.stop()
                return

    def finalize(self) -> None:
        """Run end-of-run checks (liveness monitors)."""
        if self.violation is not None:
            return
        engine = self._simulation.sim
        nodes = self._take_dirty()
        for monitor in self.monitors:
            self.checks += 1
            details = monitor.final(nodes)
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
    registry-name prefix; churn (``mobility`` or a ``link_script``)
    turns off the stale-priority check and the priority cycle check.
    Progress is a plain starvation check without crashes.  Under
    crashes it follows the paper's failure-locality claims only for
    Algorithm 2 (radius-2 exemption, Theorem 25); it is off for every
    ``alg1*`` variant.  That is a gap, not a claim: only greedy
    colouring leaves Algorithm 1's locality unbounded (Theorem 16),
    while with Linial colouring the radius is max(log* n, 4) + 2
    (Theorem 22).  Exempting by that radius is left to the ROADMAP.md
    item that turns Table 1's bounds into code.
    """
    config = config_from_dict(scenario)
    algorithm = str(config.algorithm)
    mobile = config.mobility_factory is not None or bool(config.link_script)
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
                {"name": "stale-priority",
                 "params": {"bound": 3.0 * config.bounds.nu}}
            )
    if not config.crashes:
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
