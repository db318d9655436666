"""Shared test utilities: fake nodes and global invariant checkers."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.doorway import FORK_SYNC
from repro.core.states import NodeState
from repro.net.messages import Message
from repro.runtime.simulation import Simulation
from repro.sim.engine import Simulator


class FakeNode:
    """A minimal NodeServices implementation for unit-testing components.

    Records sends/broadcasts instead of delivering them, and lets tests
    control the neighbor set and state directly.
    """

    def __init__(self, node_id: int = 0, neighbors: Iterable[int] = ()) -> None:
        self.node_id = node_id
        self._neighbors: Set[int] = set(neighbors)
        self._state = NodeState.THINKING
        self.sim = Simulator()
        #: Stage marks the algorithm made, as (time, tag).
        self.marks: List[Tuple[float, str]] = []
        self.sent: List[Tuple[int, Message]] = []
        self.broadcasts: List[Message] = []
        self.eat_calls = 0
        self.demote_calls = 0

    # -- state control ---------------------------------------------------
    @property
    def state(self) -> NodeState:
        return self._state

    def set_state(self, state: NodeState) -> None:
        self._state = state

    @property
    def now(self) -> float:
        return self.sim.now

    def set_neighbors(self, neighbors: Iterable[int]) -> None:
        # In place: neighbor_view() hands out this very set.
        self._neighbors.clear()
        self._neighbors.update(neighbors)

    def neighbors(self):
        return frozenset(self._neighbors)

    def neighbor_view(self):
        return self._neighbors

    def sorted_neighbors(self):
        return tuple(sorted(self._neighbors))

    # -- services ----------------------------------------------------------
    def send(self, dst: int, message: Message) -> None:
        self.sent.append((dst, message))

    def broadcast(self, message: Message) -> None:
        self.broadcasts.append(message)

    def start_eating(self) -> None:
        self.eat_calls += 1
        self._state = NodeState.EATING

    def demote_to_hungry(self) -> None:
        self.demote_calls += 1
        self._state = NodeState.HUNGRY

    def mark(self, tag: str) -> None:
        self.marks.append((self.now, tag))

    # -- assertions ---------------------------------------------------------
    def sent_to(self, dst: int) -> List[Message]:
        return [m for d, m in self.sent if d == dst]

    def clear(self) -> None:
        self.sent.clear()
        self.broadcasts.clear()


# ----------------------------------------------------------------------
# Global invariant checkers over a running Simulation
# ----------------------------------------------------------------------


def fork_holders(sim: Simulation, a: int, b: int) -> Tuple[bool, bool]:
    """(a holds the a-b fork, b holds it) across protocol families."""

    def holds(node: int, peer: int) -> bool:
        algorithm = sim.algorithm_of(node)
        if hasattr(algorithm, "forks"):
            return algorithm.forks.holds(peer)
        if hasattr(algorithm, "holds_fork"):
            return algorithm.holds_fork.get(peer, False)
        raise AttributeError(f"{algorithm!r} has no fork state")

    return holds(a, b), holds(b, a)


def assert_fork_uniqueness(sim: Simulation) -> None:
    """Lemma 3's core: no link's fork is held by both endpoints."""
    for a, b in sim.topology.links():
        held_a, held_b = fork_holders(sim, a, b)
        assert not (held_a and held_b), (
            f"fork of link ({a},{b}) held by both endpoints"
        )


def assert_alg2_priorities_antisymmetric(sim: Simulation) -> None:
    """At most one of higher_i[j] / higher_j[i] may be false (Lemma 24).

    Both-true is legal only while a switch message is in transit; at
    quiescence exactly one direction holds.
    """
    for a, b in sim.topology.links():
        alg_a = sim.algorithm_of(a)
        alg_b = sim.algorithm_of(b)
        higher_ab = alg_a.higher.get(b, False)
        higher_ba = alg_b.higher.get(a, False)
        assert higher_ab or higher_ba, (
            f"priority lost on link ({a},{b}): both consider the other lower"
        )


def assert_alg2_priority_graph_acyclic(sim: Simulation) -> None:
    """The strict priority digraph of Algorithm 2 is acyclic (Lemma 24)."""
    edges: Dict[int, List[int]] = {}
    for a, b in sim.topology.links():
        higher_ab = sim.algorithm_of(a).higher.get(b, False)
        higher_ba = sim.algorithm_of(b).higher.get(a, False)
        if higher_ab and not higher_ba:
            edges.setdefault(a, []).append(b)  # b outranks a
        elif higher_ba and not higher_ab:
            edges.setdefault(b, []).append(a)
    state: Dict[int, int] = {}

    def dfs(node: int) -> None:
        state[node] = 1
        for nxt in edges.get(node, ()):
            if state.get(nxt, 0) == 1:
                raise AssertionError(f"priority cycle through {node}->{nxt}")
            if state.get(nxt, 0) == 0:
                dfs(nxt)
        state[node] = 2

    for node in sim.topology.nodes():
        if state.get(node, 0) == 0:
            dfs(node)


def track_eaters(sim: Simulation) -> List[int]:
    """Count the eating nodes after every event the engine executes.

    Registers an engine listener and returns the list it appends to:
    one count per executed event.  Exact where sampling a trace on a
    time grid can miss a short overlap.
    """
    counts: List[int] = []
    harnesses = sim.harnesses.values()

    def count(_engine) -> None:
        counts.append(
            sum(1 for h in harnesses if h.state is NodeState.EATING)
        )

    sim.sim.add_listener(count)
    return counts


class Lemma4Checker:
    """Continuously checks color legality among nodes behind SDf.

    Registered as an engine listener; after every event, any two
    neighbors both behind the fork-collection synchronous doorway must
    hold distinct colors (Lemma 4).
    """

    def __init__(self, sim: Simulation) -> None:
        self._simulation = sim
        self.checks = 0
        sim.sim.add_listener(self._check)

    def _check(self, _engine) -> None:
        self.checks += 1
        simulation = self._simulation
        for a, b in simulation.topology.links():
            alg_a = simulation.algorithm_of(a)
            alg_b = simulation.algorithm_of(b)
            if not hasattr(alg_a, "doorways"):
                return
            if alg_a.doorways.is_behind(FORK_SYNC) and alg_b.doorways.is_behind(
                FORK_SYNC
            ):
                assert alg_a.my_color != alg_b.my_color, (
                    f"Lemma 4 violated at t={simulation.sim.now}: neighbors "
                    f"{a} and {b} both behind SDf with color {alg_a.my_color}"
                )


# -- OpenMetrics test parser ------------------------------------------------

_OM_NAME = r"[a-zA-Z_][a-zA-Z0-9_]*"


def parse_openmetrics(text: str) -> Dict[str, Dict]:
    """Strictly parse OpenMetrics exposition text.

    Deliberately hand-rolled and unforgiving — the point is to catch
    exporter drift, not to tolerate it.  Enforces the format rules the
    exporter promises: names match ``[a-zA-Z_][a-zA-Z0-9_]*``, every
    sample belongs to a previously declared ``# TYPE`` family, counter
    samples end in ``_total``, histogram buckets are cumulative and
    finish with ``le="+Inf"`` equal to ``_count``, and the exposition
    ends with exactly one ``# EOF`` line.

    Returns ``{family: {"type", "help", "samples": [(name, labels,
    value)]}}`` where ``labels`` is a tuple of (label, value) pairs.
    """
    import re

    families: Dict[str, Dict] = {}
    lines = text.split("\n")
    assert lines[-1] == "", "exposition must end with a newline"
    lines = lines[:-1]
    assert lines, "empty exposition"
    assert lines[-1] == "# EOF", "exposition must end with '# EOF'"
    body = lines[:-1]
    assert "# EOF" not in body, "'# EOF' must appear exactly once, last"
    current: Optional[str] = None
    for line in body:
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert re.fullmatch(_OM_NAME, name), f"bad family name {name!r}"
            assert kind in ("counter", "gauge", "histogram"), (
                f"bad family type {kind!r}"
            )
            assert name not in families, f"duplicate family {name!r}"
            families[name] = {"type": kind, "help": None, "samples": []}
            current = name
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            assert name == current, (
                f"HELP for {name!r} outside its TYPE block"
            )
            assert help_text, "empty HELP text"
            families[name]["help"] = help_text
            continue
        assert not line.startswith("#"), f"unknown comment line {line!r}"
        match = re.fullmatch(
            rf"({_OM_NAME})(?:\{{([^}}]*)\}})? (\S+)", line
        )
        assert match, f"unparseable sample line {line!r}"
        name, labelblob, raw = match.groups()
        assert current is not None, f"sample {name!r} before any # TYPE"
        family = families[current]
        assert name == current or name.startswith(current + "_"), (
            f"sample {name!r} outside family {current!r}"
        )
        if family["type"] == "counter":
            assert name == current + "_total", (
                f"counter sample {name!r} must be {current!r}_total"
            )
        elif family["type"] == "gauge":
            assert name == current, f"gauge sample {name!r} has a suffix"
        else:
            assert name in (
                current + "_bucket", current + "_count", current + "_sum"
            ), f"histogram sample {name!r} has unknown suffix"
        labels = []
        if labelblob:
            for part in labelblob.split(","):
                lmatch = re.fullmatch(rf'({_OM_NAME})="([^"]*)"', part)
                assert lmatch, f"bad label {part!r} in {line!r}"
                labels.append((lmatch.group(1), lmatch.group(2)))
        assert len(dict(labels)) == len(labels), (
            f"duplicate label names in {line!r}"
        )
        value = float(raw)
        family["samples"].append((name, tuple(labels), value))
    for name, family in families.items():
        if family["type"] != "histogram":
            continue
        by_labels: Dict[Tuple, Dict] = {}
        for sample, labels, value in family["samples"]:
            rest = tuple(
                (label, lv) for label, lv in labels if label != "le"
            )
            cell = by_labels.setdefault(rest, {"buckets": [], "scalars": {}})
            if sample.endswith("_bucket"):
                le = dict(labels).get("le")
                assert le is not None, f"bucket of {name!r} missing le"
                cell["buckets"].append((le, value))
            else:
                cell["scalars"][sample] = value
        for rest, cell in by_labels.items():
            assert cell["buckets"], f"histogram {name!r} cell has no buckets"
            assert cell["buckets"][-1][0] == "+Inf", (
                f"histogram {name!r} last bucket must be +Inf"
            )
            counts = [v for _, v in cell["buckets"]]
            assert counts == sorted(counts), (
                f"histogram {name!r} buckets not cumulative: {counts}"
            )
            bounds = [le for le, _ in cell["buckets"][:-1]]
            assert bounds == sorted(bounds, key=float), (
                f"histogram {name!r} bounds out of order: {bounds}"
            )
            count = cell["scalars"].get(name + "_count")
            assert count is not None, f"histogram {name!r} missing _count"
            assert name + "_sum" in cell["scalars"], (
                f"histogram {name!r} missing _sum"
            )
            assert counts[-1] == count, (
                f"histogram {name!r} +Inf bucket {counts[-1]} != "
                f"count {count}"
            )
    return families
