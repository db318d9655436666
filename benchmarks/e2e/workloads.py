"""The four workloads of the e2e ledger.

Each workload turns a seed into inputs (``build``) and runs one
*repeat* on them (``repeat``): set-up, the measured run, and the
correctness checks, returning the repeat's metrics as plain numbers.
All are closed loops — every node is a client that thinks U(1,5)
virtual time units, requests the critical section, and asks again only
after it has eaten — so a slower system receives less load.

``src/`` is measured from outside: nothing here is imported by it.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import random
import statistics
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SafetyViolation
from repro.live import replay, service
from repro.mobility import RandomWaypoint
from repro.net.geometry import Point
from repro.runtime.simulation import (
    ScenarioConfig, Simulation, peak_rss_kb,
)

#: Set-ups timed per repeat (the median is the repeat's ``setup_s``):
#: one construction takes milliseconds, far too short to gate alone.
SETUP_SAMPLES = 5

#: How far from a crash each algorithm may starve a hungry node
#: (Theorems 25 and 22; alg1-greedy's is n, and its workloads have no
#: crash).  Open requests inside that radius are nobody's failure.
FAILURE_LOCALITY = {"alg2": 2, "alg1-linial": 6}

#: Message kinds reported as ``core.msgs_by_kind.<kind>``.
MESSAGE_KINDS = (
    "ForkGrant", "ForkRequest", "Notification", "Switch",
    "DoorwayCross", "DoorwayExit", "GraphExchange", "UpdateColor",
)


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def peak_rss_mb() -> float:
    """This process's peak resident set size so far."""
    return peak_rss_kb() / 1024.0


def _traced_layers(tracer, wall: float) -> Dict[str, float]:
    """Flatten the tracer's layer table into ``<layer>.<field>`` metrics.

    ``sim.other_self_s`` is the part of ``wall`` no span covers — the
    event loop and dequeue — and counts towards ``sim.share``, so the
    shares sum to 1.
    """
    layers = tracer.layers()
    other = wall - sum(row["self_s"] for row in layers.values())
    out: Dict[str, float] = {"sim.other_self_s": other, "trace.wall_s": wall}
    for layer, row in layers.items():
        busy = row["self_s"] + (other if layer == "sim" else 0.0)
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.share"] = busy / wall
    return out


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SimWorkload:
    """A random unit-disk network under one registered algorithm.

    The ``side``² nodes are placed one per cell of a ``side`` x ``side``
    lattice, uniformly inside the cell (stratified sampling).  Every
    seed gives a different graph, but one with the same density
    everywhere, so host-time metrics vary between seeds by a few percent
    instead of the 20–30 % that independent uniform placement gives
    (README.md, "Placement").
    """

    name: str
    #: Lattice cells per side; node ``i`` sits in cell (i % side, i // side).
    side: int
    #: Nodes per radio disk: a cell's area is π·r²/density, which gives
    #: a mean degree a little below ``density`` (border effect).
    density: float
    algorithm: str
    until: float
    #: A request still open at ``until`` and older than this has failed.
    patience_vt: float
    #: Crash the nodes at the quarter points of the lattice's main
    #: diagonal (five or more hops apart) at this time.
    crash_at: Optional[float] = None
    #: Every k-th node walks a random waypoint (speed 0.5–1.5, pause 1–5).
    mover_every: int = 0
    delta_override: Optional[int] = None
    radio: float = 3.0

    @property
    def n(self) -> int:
        return self.side * self.side

    def smoke(self) -> "SimWorkload":
        # Twenty time units are too few to tell slow from starved: a
        # patience of the whole run keeps the checks' code on the path
        # and their verdicts out of it.
        crash_at = None if self.crash_at is None else 2.0
        return dataclasses.replace(
            self, side=7, until=20.0, patience_vt=20.0, crash_at=crash_at
        )

    def build(self, seed: int) -> ScenarioConfig:
        cell = self.radio * math.sqrt(math.pi / self.density)
        width = self.side * cell
        rng = random.Random(seed)
        positions = [
            Point((i % self.side + rng.random()) * cell,
                  (i // self.side + rng.random()) * cell)
            for i in range(self.n)
        ]
        crashes = []
        if self.crash_at is not None:
            crashes = [
                (self.crash_at, (self.side + 1) * (q * self.side // 4))
                for q in (1, 2, 3)
            ]
        factory = None
        if self.mover_every:
            every = self.mover_every

            def factory(node_id: int):
                if node_id % every:
                    return None
                return RandomWaypoint(width, width, (0.5, 1.5), (1.0, 5.0))

        return ScenarioConfig(
            positions=positions,
            radio_range=self.radio,
            algorithm=self.algorithm,
            seed=seed,
            crashes=crashes,
            mobility_factory=factory,
            delta_override=self.delta_override,
        )

    def repeat(self, config: ScenarioConfig, tracer=None) -> Dict[str, Any]:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            gc.collect()
            started = perf_counter()
            Simulation(config)
            setups.append(perf_counter() - started)
        gc.collect()
        if tracer is not None:
            tracer.reset()
        started = perf_counter()
        simulation = Simulation(config)
        built = perf_counter()
        links_before = simulation.topology.version
        link_events = 0

        def count_link_event(kind: str, a: int, b: int) -> None:
            nonlocal link_events
            link_events += 1

        if tracer is not None:
            simulation.linklayer.observers.append(count_link_event)
        errors: List[str] = []
        try:
            result = simulation.run(until=self.until)
        except SafetyViolation as exc:
            return {"errors": [f"safety violation: {exc}"]}
        run_wall = perf_counter() - built
        setups.append(built - started)

        delivered = result.channel["delivered"]
        events = result.engine["executed_events"]
        responses = sorted(result.response_times)
        report = result.report().to_dict()
        # The package version stamp is not behaviour: without it a
        # version bump alone keeps the digest.
        del report["version"]
        digest = hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()
        ).hexdigest()

        failed, radius = self._failed(simulation)
        limit = FAILURE_LOCALITY.get(self.algorithm)
        if radius is not None and limit is not None and radius > limit:
            errors.append(f"starvation radius {radius} > {limit}")

        reply: Dict[str, Any] = {
            "errors": errors,
            "attempted": len(responses) + failed,
            "failed": failed,
            "wall_s": setups[-1] + run_wall,
            "fingerprint": {
                "executed_events": events,
                "messages_sent": result.messages_sent,
                "cs_entries": result.cs_entries,
                "sim_digest": digest,
            },
            "metrics": {
                "setup_s": statistics.median(setups),
                "run_wall_s": run_wall,
                "events_per_s": events / run_wall,
                "cs_entries_per_s": result.cs_entries / run_wall,
                "us_per_delivery": 1e6 * run_wall / delivered,
                "sim_response_p50": percentile(responses, 0.50),
                "sim_response_p99": percentile(responses, 0.99),
                "sim_msgs_per_cs": result.messages_sent / result.cs_entries,
            },
        }
        if tracer is None:
            return reply

        traced = _traced_layers(tracer, reply["wall_s"])
        functions = tracer.calls_by_function()
        scheduler = result.engine["scheduler"]
        mobility = simulation.mobility.stats()
        scheduled = mobility["crossings_scheduled"]
        traced.update({
            "sim.executed_events": events,
            "sim.queue_high_water": scheduler["high_water"],
            "sim.cancelled": (
                scheduler["cancelled"] + scheduler["cancelled_in_place"]
            ),
            "net.channel.sent": result.messages_sent,
            "net.channel.delivered": delivered,
            "net.channel.dropped": result.channel["dropped_link_down"],
            "net.channel.drains_per_delivery": (
                functions.get("ChannelLayer._drain", 0) / delivered
            ),
            "net.linklayer.link_events": link_events,
            "net.topology.link_changes": (
                simulation.topology.version - links_before
            ),
            "mobility.position_updates": mobility["position_updates"],
            "mobility.crossings_scheduled": scheduled,
            "mobility.crossing_events": mobility["crossing_events"],
            "mobility.useful_ratio": (
                mobility["crossing_events"] / scheduled if scheduled else 0.0
            ),
            "core.msgs_per_cs": reply["metrics"]["sim_msgs_per_cs"],
            "core.response_p50": reply["metrics"]["sim_response_p50"],
            "core.response_p99": reply["metrics"]["sim_response_p99"],
            "core.coloring.sessions": functions.get(
                "ColoringSession.begin", 0
            ),
            "core.coloring.peer_messages": functions.get(
                "ColoringSession.on_peer_message", 0
            ),
            "runtime.crashes": functions.get("CrashInjector._crash", 0),
        })
        for kind in MESSAGE_KINDS:
            traced[f"core.msgs_by_kind.{kind}"] = (
                result.messages_by_kind.get(kind, 0)
            )
        reply["traced"] = traced
        return reply

    def _failed(self, simulation: Simulation) -> Tuple[int, Optional[int]]:
        """(failed requests, starvation radius or None).

        Failed: still open at ``until``, older than ``patience_vt``, at
        a node the model promises progress to — not crashed, not within
        the algorithm's failure locality of a crash, and not a mover
        (movers pause 1–5 but the median response is ~10, so their
        requests are routinely preempted by their own next move).
        """
        excused = set()
        radius = None
        if simulation.failures.crashes:
            locality = simulation.locality_report(patience=self.patience_vt)
            radius = locality.starvation_radius
            limit = FAILURE_LOCALITY[self.algorithm]
            excused.update(
                node for node, hops in locality.distances.items()
                if hops <= limit
            )
        if self.mover_every:
            excused.update(range(0, self.n, self.mover_every))
        now = simulation.sim.now
        failed = sum(
            1
            for node, since in simulation.metrics.hungry_nodes().items()
            if node not in excused and now - since > self.patience_vt
        )
        return failed, radius


# ----------------------------------------------------------------------
# Live workload
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class LiveWorkload:
    """A grid on the in-process bus, then its recording re-verified.

    ``run_bus`` is paced by the wall clock, so its cost is CPU time
    (``time.process_time``), not wall; ``verify_recording`` replays the
    recording in the simulator under the invariant monitors and is
    timed by wall like the simulator workloads.
    """

    name: str
    side: int
    algorithm: str
    until: float
    patience_vt: float
    crash: Tuple[float, int]
    time_scale: float = 0.01

    def smoke(self) -> "LiveWorkload":
        return dataclasses.replace(
            self, side=4, until=10.0, patience_vt=10.0, crash=(4.0, 8)
        )

    def build(self, seed: int) -> Dict[str, Any]:
        side = self.side
        return {
            "positions": [
                [float(i % side), float(i // side)] for i in range(side * side)
            ],
            "radio_range": 1.0,
            "algorithm": self.algorithm,
            "seed": seed,
            "crashes": [list(self.crash)],
        }

    def repeat(self, scenario: Dict[str, Any], tracer=None) -> Dict[str, Any]:
        # A zero-horizon run is pure set-up: scenario build,
        # config_from_dict and the node stack run_bus assembles before
        # its loop starts.
        setups = []
        for sample in range(SETUP_SAMPLES):
            gc.collect()
            if tracer is not None and sample == SETUP_SAMPLES - 1:
                tracer.reset()
            started = perf_counter()
            service.run_bus(
                self.build(scenario["seed"]), 0.0, time_scale=self.time_scale
            )
            setups.append(perf_counter() - started)

        cpu_started = process_time()
        started = perf_counter()
        recording = service.run_bus(
            scenario, self.until, time_scale=self.time_scale
        )
        bus_cpu = process_time() - cpu_started
        bus_wall = perf_counter() - started
        started = perf_counter()
        verdict = replay.verify_recording(recording)
        verify_wall = perf_counter() - started
        wall = setups[-1] + bus_wall + verify_wall
        layers = None
        if tracer is not None:
            layers = _traced_layers(tracer, wall)
            functions = tracer.calls_by_function()

        rows = recording["rows"]
        crashed_node = self.crash[1]
        side = self.side

        def hops(node: int) -> int:
            return (abs(node % side - crashed_node % side)
                    + abs(node // side - crashed_node // side))

        hungry_since: Dict[int, float] = {}
        responses: List[float] = []
        kinds: Dict[str, int] = {}
        recv = dropped = crashes = 0
        for row in rows:
            if row["k"] == "recv":
                recv += 1
            elif row["k"] == "drop":
                dropped += 1
            for emitted in row.get("emits", ()):
                kinds[emitted[3]] = kinds.get(emitted[3], 0) + 1
            for tag, node in row.get("fx", ()):
                if tag == "hungry":
                    hungry_since[node] = row["t"]
                elif tag == "enter":
                    since = hungry_since.pop(node, None)
                    if since is not None:
                        responses.append(row["t"] - since)
                elif tag == "crashed":
                    # The recording's own metrics["crashed"] reads 0
                    # even when a crash fired (README, found issues).
                    crashes += 1
        limit = FAILURE_LOCALITY[self.algorithm]
        failed = sum(
            1
            for node, since in hungry_since.items()
            if hops(node) > limit
            and recording["t_end"] - since > self.patience_vt
        )
        errors = []
        if not verdict["clean"]:
            errors.append(
                "verify_recording not clean: "
                f"violation={verdict['violation']} "
                f"divergence={verdict['fidelity']['divergence']}"
            )
        if crashes != 1:
            errors.append(f"expected 1 crashed effect, saw {crashes}")

        run_wall = bus_cpu + verify_wall
        sent = sum(kinds.values())
        responses.sort()
        reply: Dict[str, Any] = {
            "errors": errors,
            "attempted": len(responses) + failed,
            "failed": failed,
            "wall_s": wall,
            "metrics": {
                "setup_s": statistics.median(setups),
                "run_wall_s": run_wall,
                "events_per_s": len(rows) / verify_wall,
                "cs_entries_per_s": len(responses) / run_wall,
                "us_per_delivery": 1e6 * bus_cpu / recv,
            },
        }
        if layers is None:
            return reply

        started = perf_counter()
        derived = replay.derive_replay(recording)
        derive_s = perf_counter() - started
        to_ms = 1e3 * self.time_scale
        layers.update({
            "net.channel.sent": sent,
            "net.channel.delivered": recv,
            "net.channel.dropped": dropped,
            "core.msgs_per_cs": sent / len(responses),
            "core.response_p50": percentile(responses, 0.50),
            "core.response_p99": percentile(responses, 0.99),
            "core.coloring.sessions": functions.get(
                "ColoringSession.begin", 0
            ),
            "core.coloring.peer_messages": functions.get(
                "ColoringSession.on_peer_message", 0
            ),
            "runtime.crashes": crashes,
            "live.rows": len(rows),
            "live.cpu_us_per_row": 1e6 * bus_cpu / len(rows),
            "live.cs_latency_p50_ms": to_ms * percentile(responses, 0.50),
            "live.cs_latency_p99_ms": to_ms * percentile(responses, 0.99),
            "live.replay.derive_s": derive_s,
            "live.replay.verify_s": verify_wall,
            "live.replay.expected_fx": len(derived.expected),
        })
        for kind in MESSAGE_KINDS:
            layers[f"core.msgs_by_kind.{kind}"] = kinds.get(kind, 0)
        reply["traced"] = layers
        return reply


# ----------------------------------------------------------------------
# Sizes are what fits the driver's budget on a 2-core box (3–5 s per
# repeat); README.md has the measured shares behind each "why" and the
# response maxima behind each ``patience_vt``.
WORKLOADS = (
    SimWorkload(
        "disk625-alg2-crash", side=25, density=9.0, algorithm="alg2",
        until=120.0, patience_vt=100.0, crash_at=10.0,
    ),
    SimWorkload(
        "disk400-greedy-flood", side=20, density=12.0, algorithm="alg1-greedy",
        until=160.0, patience_vt=140.0,
    ),
    SimWorkload(
        "waypoint196-greedy", side=14, density=9.0, algorithm="alg1-greedy",
        until=120.0, patience_vt=100.0, mover_every=4, delta_override=40,
    ),
    LiveWorkload(
        "live-bus36-linial", side=6, algorithm="alg1-linial",
        until=60.0, patience_vt=36.0, crash=(20.0, 18),
    ),
)


def get(name: str, smoke: bool = False):
    for workload in WORKLOADS:
        if workload.name == name:
            return workload.smoke() if smoke else workload
    raise KeyError(name)
