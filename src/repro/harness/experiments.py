"""Canonical experiment runners (see DESIGN.md Section 3).

These functions own the experimental methodology — topologies,
workloads, crash plans, what gets measured — so that the benchmark
files stay declarative and the test suite can re-run the same
experiments at reduced scale.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import Summary, summarize
from repro.core.doorway_harness import doorway_entry
from repro.metrics.locality import LocalityReport
from repro.mobility import MobilityPlan
from repro.net.geometry import Point, grid_positions, line_positions
from repro.runtime.simulation import ScenarioConfig, Simulation, SimulationResult
from repro.sim.clock import TimeBounds

#: The protocols the Table 1 benchmark compares, in presentation order.
TABLE1_ALGORITHMS = (
    "oracle",
    "alg2",
    "alg1-linial",
    "alg1-greedy",
    "choy-singh",
    "chandy-misra",
    "ordered-ids",
)


# ----------------------------------------------------------------------
# Generic runners
# ----------------------------------------------------------------------


def run_static(
    algorithm,
    positions: Sequence[Point],
    until: float = 400.0,
    seed: int = 5,
    radio_range: float = 1.0,
    think_range: Tuple[float, float] = (1.0, 4.0),
    bounds: Optional[TimeBounds] = None,
    strict_safety: bool = True,
    **overrides,
) -> SimulationResult:
    """Run one algorithm on a static topology with the default workload."""
    config = ScenarioConfig(
        positions=list(positions),
        radio_range=radio_range,
        algorithm=algorithm,
        seed=seed,
        think_range=think_range,
        bounds=bounds or TimeBounds(),
        strict_safety=strict_safety,
        **overrides,
    )
    return Simulation(config).run(until=until)


@dataclass
class ComparisonRow:
    """One Table 1 row: measured behavior of one protocol."""

    algorithm: str
    cs_entries: int
    response: Optional[Summary]
    messages_per_cs: Optional[float]
    starvation_radius: Optional[int]


def compare_algorithms(
    n: int = 13,
    until: float = 500.0,
    seed: int = 5,
    crash_time: float = 20.0,
    algorithms: Sequence[str] = TABLE1_ALGORITHMS,
) -> List[ComparisonRow]:
    """Experiment T1: all protocols on one workload + one crash probe.

    Two runs per protocol: a failure-free run on a line of n nodes for
    throughput/latency, and a crash run (middle node fails) for the
    empirical failure locality.
    """
    positions = line_positions(n, spacing=1.0)
    rows: List[ComparisonRow] = []
    for algorithm in algorithms:
        clean = run_static(
            algorithm, positions, until=until, seed=seed,
            think_range=(0.5, 2.0),
        )
        report = crash_probe(
            algorithm, n=n, until=until, seed=seed, crash_time=crash_time
        )
        rows.append(
            ComparisonRow(
                algorithm=algorithm,
                cs_entries=clean.cs_entries,
                response=summarize(clean.response_times),
                messages_per_cs=clean.messages_per_cs(),
                starvation_radius=report.starvation_radius,
            )
        )
    return rows


def crash_probe(
    algorithm,
    n: int = 13,
    until: float = 500.0,
    seed: int = 5,
    crash_time: float = 20.0,
    crash_node: Optional[int] = None,
    crash_while_eating: bool = True,
) -> LocalityReport:
    """Experiment E3: crash the middle of a line, measure starvation radius.

    With ``crash_while_eating`` (the default) the victim is crashed the
    first time it is observed *eating* after ``crash_time``, so it dies
    holding every shared fork — the worst case for its neighborhood and
    the configuration the failure-locality bounds are about.  Crashing
    at an arbitrary instant often kills a node holding nothing, which
    starves nobody and measures nothing.
    """
    from repro.core.states import NodeState

    positions = line_positions(n, spacing=1.0)
    if crash_node is None:
        crash_node = n // 2
    config = ScenarioConfig(
        positions=positions,
        algorithm=algorithm,
        seed=seed,
        think_range=(0.5, 2.0),
        crashes=[] if crash_while_eating else [(crash_time, crash_node)],
    )
    sim = Simulation(config)
    if crash_while_eating:
        harness = sim.harnesses[crash_node]
        checkpoint = crash_time
        while checkpoint < until:
            sim.sim.run(until=checkpoint)
            if harness.state is NodeState.EATING:
                break
            checkpoint += 0.25
        sim.failures.schedule(sim.sim.now, crash_node)
    sim.run(until=until)
    return sim.locality_report()


# ----------------------------------------------------------------------
# Doorway experiments (Figures 1-4)
# ----------------------------------------------------------------------


def star_positions(delta: int, radius: float = 0.9) -> List[Point]:
    """A star: node 0 in the center with ``delta`` leaves.

    Under unit-disk with radius < range < 2*radius*sin(pi/delta) the
    leaves see only the hub — but for doorway experiments we place
    leaves inside mutual range deliberately NOT mattering: the hub's
    degree is what drives Lemma 1's delta factor.
    """
    import math

    points = [Point(0.0, 0.0)]
    for i in range(delta):
        angle = 2 * math.pi * i / delta
        points.append(Point(radius * math.cos(angle), radius * math.sin(angle)))
    return points


def doorway_latency(
    kind: str,
    delta: int,
    module_time: float = 1.0,
    returns: int = 1,
    until: float = 400.0,
    seed: int = 3,
) -> Optional[Summary]:
    """Experiments F2-F4: traversal latency of one doorway kind.

    Topology: a star with hub degree ``delta``; every node cycles
    through the doorway continuously (saturation), so the hub
    experiences the full interference the lemmas bound.

    Returns None when the hub never completed a traversal — which is a
    *result*, not an error: the raw synchronous doorway can starve its
    most-contended user indefinitely (the pathology the asynchronous
    entry and the double doorway exist to fix).
    """
    bounds = TimeBounds(nu=0.1, tau=0.1)
    result = run_static(
        doorway_entry(kind, module_time=module_time, returns=returns),
        star_positions(delta),
        until=until,
        seed=seed,
        radio_range=1.0,
        think_range=(0.0, 0.1),
        bounds=bounds,
        strict_safety=False,
    )
    # The hub (node 0) has degree delta and experiences the full
    # interference Lemmas 1-2 bound; leaves only see the hub.
    return summarize(result.metrics.response_times(node_id=0))


# ----------------------------------------------------------------------
# Figure 5: Algorithm 1 pipeline breakdown
# ----------------------------------------------------------------------

_STAGES = (
    ("hungry", "app.hungry"),
    ("cross_ADr", None),  # filled from doorway.crossed detail
    ("cross_SDr", None),
    ("recolor", "recolor.done"),
    ("cross_ADf", None),
    ("cross_SDf", None),
    ("eat", "cs.enter"),
)


def pipeline_breakdown(
    n: int = 12,
    until: float = 400.0,
    seed: int = 9,
    coloring: str = "alg1-greedy",
) -> Dict[str, float]:
    """Experiment F5: mean time spent per pipeline stage.

    Runs Algorithm 1 on a grid where a third of the nodes wander, so the
    recoloring path is exercised, and averages the stage-to-stage
    deltas of every hungry episode that traversed the full pipeline.
    """
    side = max(2, int(round(n ** 0.5)))
    config = ScenarioConfig(
        positions=grid_positions(n, 1.0),
        radio_range=1.2,
        algorithm=coloring,
        seed=seed,
        think_range=(1.0, 4.0),
        trace=True,
        delta_override=n - 1,
        mobility_factory=MobilityPlan.of(
            "waypoint", range(0, n, 3), width=side, height=side,
            speed_range=(0.5, 1.0), pause_range=(10.0, 30.0),
        ),
    )
    sim = Simulation(config)
    sim.run(until=until)

    # Reconstruct per-node episodes from the trace.
    events_by_node: Dict[int, List[Tuple[float, str]]] = {}
    for rec in sim.trace:
        label = None
        if rec.category == "app.hungry":
            label = "hungry"
        elif rec.category == "doorway.crossed":
            label = f"cross_{rec.detail['doorway']}"
        elif rec.category == "recolor.done":
            label = "recolor"
        elif rec.category == "cs.enter":
            label = "eat"
        if label is not None and rec.node is not None:
            events_by_node.setdefault(rec.node, []).append((rec.time, label))

    order = [
        "hungry", "cross_ADr", "cross_SDr", "recolor",
        "cross_ADf", "cross_SDf", "eat",
    ]
    durations: Dict[str, List[float]] = {label: [] for label in order[1:]}
    for events in events_by_node.values():
        idx = 0
        last_time = None
        for time, label in events:
            if label == "hungry":
                idx = 1
                last_time = time
                continue
            if last_time is None or idx == 0:
                continue
            # Accept the next expected stage; skip stages not taken.
            while idx < len(order) and order[idx] != label:
                idx += 1
            if idx >= len(order):
                idx = 0
                continue
            durations[label].append(time - last_time)
            last_time = time
            if label == "eat":
                idx = 0
            else:
                idx += 1
    return {
        label: (sum(values) / len(values) if values else 0.0)
        for label, values in durations.items()
    }


# ----------------------------------------------------------------------
# Figure 6: the crash + movement scenario
# ----------------------------------------------------------------------


@dataclass
class Fig6Outcome:
    """What the scripted Figure 6 scenario produced."""

    p1_entries: int
    p2_entries_before_move: int
    p2_entries_after_move: int
    #: p3 is blocked by the crashed p4 while in its neighborhood; after
    #: moving away it is isolated and eats trivially.
    p3_entries_before_move: int
    p3_entries_after_move: int
    p2_return_paths: int


def fig6_crash_scenario(
    move_time: float = 250.0,
    until: float = 500.0,
    seed: int = 1,
) -> Fig6Outcome:
    """Reproduce Figure 6: p4 crashes; p3 blocks; p2 blocked until p3
    moves away, then recovers via the return path; p1 is never harmed.

    Node ids: 0=p1, 1=p2, 2=p3, 3=p4 on a line.  Initial colors give
    the figure's priority order color(p3) < color(p2) < color(p1) with
    the failed node p4 lowest priority.
    """
    positions = line_positions(4, spacing=1.0)
    initial_colors = {0: 2, 1: 1, 2: 0, 3: 3}
    config = ScenarioConfig(
        positions=positions,
        algorithm="alg1-greedy",
        seed=seed,
        initial_colors=initial_colors,
        # p4 eats once early (so it ends up holding the p3-p4 fork),
        # then crashes; the others start competing afterwards.
        scripted_hunger={
            3: [1.0],
            0: [t * 4.0 + 30.0 for t in range(int((until - 30) / 4))],
            1: [t * 4.0 + 30.0 for t in range(int((until - 30) / 4))],
            2: [t * 4.0 + 30.0 for t in range(int((until - 30) / 4))],
        },
        crashes=[(20.0, 3)],
        mobility_factory=MobilityPlan.of(
            "scripted", [2], moves=[[move_time, 2.0, 10.0, 0.0]]
        ),
        trace=True,
    )
    sim = Simulation(config)
    sim.run(until=until)
    p2_eats = [
        rec.time for rec in sim.trace.select(category="cs.enter", node=1)
    ]
    p3_eats = [
        rec.time for rec in sim.trace.select(category="cs.enter", node=2)
    ]
    alg_p2 = sim.algorithm_of(1)
    return Fig6Outcome(
        p1_entries=len(sim.trace.select(category="cs.enter", node=0)),
        p2_entries_before_move=sum(1 for t in p2_eats if t < move_time),
        p2_entries_after_move=sum(1 for t in p2_eats if t >= move_time),
        p3_entries_before_move=sum(1 for t in p3_eats if t < move_time),
        p3_entries_after_move=sum(1 for t in p3_eats if t >= move_time),
        p2_return_paths=alg_p2.return_paths_taken,
    )


# ----------------------------------------------------------------------
# Offline coloring runs (experiment E4)
# ----------------------------------------------------------------------


def coloring_offline(procedure, ids: Sequence[int]):
    """Run one coloring procedure over a clique of participants.

    Instant, in-order message delivery — isolates the procedure's round
    count and color range from network timing.  Returns
    ``(colors, rounds)`` where colors maps id -> final color.
    """
    from repro.core.messages import RecolorNack

    # A deque: the drain loop below pops from the head per message, and
    # list.pop(0) would make it O(n²) over the whole coloring run.
    queue: Deque[Tuple[int, int, object]] = deque()
    finished: Dict[int, int] = {}
    sessions = {}
    for node_id in ids:
        peers = {j for j in ids if j != node_id}
        sessions[node_id] = procedure.create_session(
            node_id,
            peers,
            lambda dst, msg, src=node_id: queue.append((src, dst, msg)),
            lambda value, src=node_id: finished.__setitem__(src, value),
        )
    for session in sessions.values():
        session.begin()
    while queue:
        src, dst, msg = queue.popleft()
        target = sessions[dst]
        if isinstance(msg, RecolorNack):
            target.remove_peer(src)
        elif target.active:
            target.on_peer_message(src, msg)
        else:
            queue.append((dst, src, RecolorNack(0)))
    rounds = max(s.rounds_executed for s in sessions.values())
    return finished, rounds


# ----------------------------------------------------------------------
# Scaling experiments (E1, E6)
# ----------------------------------------------------------------------


def response_vs_n(
    algorithm,
    ns: Sequence[int],
    until: float = 400.0,
    seed: int = 5,
) -> List[Tuple[int, Summary]]:
    """Experiments E1/E6: response-time summary as n grows (line graphs)."""
    results: List[Tuple[int, Summary]] = []
    for n in ns:
        config = ScenarioConfig(
            positions=line_positions(n, spacing=1.0),
            algorithm=algorithm,
            seed=seed,
            think_range=(0.5, 2.0),
        )
        result = Simulation(config).run(until=until)
        summary = summarize(result.response_times)
        assert summary is not None, f"no samples for n={n}"
        results.append((n, summary))
    return results
