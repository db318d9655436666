"""Core-pipeline performance benchmarks.

Times the layers that carry a sizeable share of some end-to-end
workload's wall in the ``benchmarks/e2e`` ledger:

1. **Topology churn** — grid-indexed `set_position` vs the all-pairs
   scan oracle (``tests/oracles/topology_scan.py``) at n=1000, best of
   three passes each (the grid must win by ≥5×, and produce identical
   links);
2. **Raw event throughput** — the Simulator hot loop, including a
   cancellation-heavy workload that exercises heap compaction;
3. **Message plane** — broadcast-flood delivery throughput of the
   channel (one engine event per message);
4. **Mobility plane** — kinetic link prediction vs the fixed-step
   oracle (``tests/oracles/fixed_step.py``) at n=1000 with every node
   mid-flight concurrently: the kinetic engine must execute ≥3× fewer
   topology updates (a deterministic counter comparison) and finish
   ≥2× faster on a quiet box (gated on the spread of a same-session
   event-loop calibration), while both land on identical final
   positions and link sets;
5. **Invariant-monitor suite** — the full default monitor set on an
   alg2 crash scenario shaped like the ledger's crash workload costs
   at most 3x the plain run (jitter-gated), with a deterministic check
   count.

Run with ``pytest -m perf benchmarks/test_perf_core.py``.  Setting
``REPRO_WRITE_BENCH=1`` writes the measurements to ``BENCH_core.json``
at the repo root so later PRs have a perf trajectory to defend; without
the env var no file is touched.
"""

import json
import math
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from oracles.fixed_step import FixedStepController
from oracles.topology_scan import ScanTopology
from repro._version import __version__
from repro.obs.bench_history import HISTORY_NAME, append_record, git_commit
from repro.mobility import MobilityController
from repro.net.channel import ChannelLayer
from repro.net.linklayer import LinkLayer
from repro.net.geometry import Point, grid_positions
from repro.net.messages import Message
from repro.net.topology import DynamicTopology
from repro.runtime.simulation import (
    ScenarioConfig,
    Simulation,
    peak_rss_kb,
)
from repro.sim.clock import TimeBounds
from repro.sim.engine import Simulator
from repro.sim.rng import RandomSource

pytestmark = pytest.mark.perf

_RESULTS = {}

_WRITE_ENV = "REPRO_WRITE_BENCH"


_GIT_COMMIT = git_commit(Path(__file__).resolve().parent)


def _record(name: str, entry: dict) -> dict:
    """Store one bench section, stamped with provenance + peak RSS.

    The RSS stamp is the high-water mark *up to this point of the
    session* (``ru_maxrss`` never decreases), so sections later in the
    file inherit earlier peaks; per-section deltas are only meaningful
    against the same section in an earlier baseline.  The commit and
    version stamps keep the legacy ``BENCH_core.json`` snapshot and the
    ``BENCH_history.jsonl`` trajectory agreeing on provenance.
    """
    entry["peak_rss_kb"] = peak_rss_kb()
    entry["git_commit"] = _GIT_COMMIT
    entry["version"] = __version__
    _RESULTS[name] = entry
    return entry


@pytest.fixture(scope="module", autouse=True)
def _bench_sink():
    """Collect per-test measurements; emit BENCH files only on opt-in.

    On ``REPRO_WRITE_BENCH=1`` the run overwrites the ``BENCH_core.json``
    snapshot (the at-a-glance view) *and* appends one stamped record
    to ``BENCH_history.jsonl`` (the append-only trajectory).
    """
    yield
    if os.environ.get(_WRITE_ENV) and _RESULTS:
        root = Path(__file__).resolve().parent.parent
        path = root / "BENCH_core.json"
        path.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n")
        append_record(root / HISTORY_NAME, _RESULTS, commit=_GIT_COMMIT)


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _calibrate_events_per_second(n_events: int = 100_000) -> float:
    """Throughput of the bare event loop on *this* box.  The spread of
    calls around a timed section is its noise level: the wall-clock
    bars below skip themselves when it exceeds 5 %."""
    sim = Simulator()

    def noop():
        pass

    for i in range(n_events):
        sim.schedule_at(float(i % 997), noop)
    run_time = _timed(sim.run)
    return n_events / run_time if run_time else math.inf


# ---------------------------------------------------------------------------
# 1. Topology churn: spatial hash vs the all-pairs scan oracle
# ---------------------------------------------------------------------------


def test_topology_churn_grid_vs_brute(report):
    n = 1000
    radio = 2.0
    arena = 40.0
    rng = random.Random(1234)
    positions = [
        Point(rng.uniform(0, arena), rng.uniform(0, arena)) for _ in range(n)
    ]
    moves = []
    for _ in range(600):
        node = rng.randrange(n)
        base = positions[node]
        target = Point(
            min(max(base.x + rng.uniform(-radio, radio), 0.0), arena),
            min(max(base.y + rng.uniform(-radio, radio), 0.0), arena),
        )
        moves.append((node, target))

    def build(cls):
        topo = cls(radio_range=radio)
        for node, pos in enumerate(positions):
            topo.add_node(node, pos)
        return topo

    def churn(topo):
        for node, target in moves:
            topo.set_position(node, target)

    def timed_churn(cls):
        # Best of three passes over freshly built topologies: a single
        # grid pass is too short to time reliably against OS noise.
        best = math.inf
        for _ in range(3):
            topo = build(cls)
            best = min(best, _timed(lambda: churn(topo)))
        return topo, best

    grid_topo, grid_time = timed_churn(DynamicTopology)
    brute_topo, brute_time = timed_churn(ScanTopology)
    assert grid_topo.links() == brute_topo.links()
    assert grid_topo.max_degree() == brute_topo.max_degree()

    speedup = brute_time / grid_time if grid_time else math.inf
    _record("topology_churn", {
        "n": n,
        "moves": len(moves),
        "radio_range": radio,
        "grid_seconds": round(grid_time, 6),
        "brute_seconds": round(brute_time, 6),
        "speedup": round(speedup, 2),
    })
    report(
        f"topology churn n={n}: grid {grid_time:.4f}s, "
        f"brute {brute_time:.4f}s, speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0, (
        f"grid index should beat brute force by >=5x at n={n}, "
        f"got {speedup:.1f}x"
    )


# ---------------------------------------------------------------------------
# 2. Raw event throughput and cancellation-heavy workloads
# ---------------------------------------------------------------------------


def test_event_throughput(report):
    n_events = 200_000
    sim = Simulator()

    def noop():
        pass

    def schedule_all():
        for i in range(n_events):
            sim.schedule_at(float(i % 997), noop)

    schedule_time = _timed(schedule_all)
    run_time = _timed(sim.run)
    assert sim.executed_events == n_events
    throughput = n_events / run_time if run_time else math.inf
    _record("event_throughput", {
        "events": n_events,
        "schedule_seconds": round(schedule_time, 6),
        "run_seconds": round(run_time, 6),
        "events_per_second": round(throughput),
    })
    report(
        f"event loop: {n_events} events in {run_time:.4f}s "
        f"({throughput:,.0f} ev/s)"
    )


def test_cancellation_heavy_throughput(report):
    """Mass cancellation triggers compaction; pending count stays O(1)."""
    n_events = 120_000
    sim = Simulator()
    handles = [
        sim.schedule_at(float(i % 89), lambda: None) for i in range(n_events)
    ]

    def cancel_most():
        for i, handle in enumerate(handles):
            if i % 10:
                handle.cancel()

    cancel_time = _timed(cancel_most)
    # The live counter keeps this O(1); with n cancellations above it
    # would be O(n²) under the old scan-the-heap implementation.
    assert sim.pending_events == n_events // 10
    run_time = _timed(sim.run)
    assert sim.executed_events == n_events // 10
    assert sim.pending_events == 0
    _record("cancellation_heavy", {
        "scheduled": n_events,
        "cancelled": n_events - n_events // 10,
        "cancel_seconds": round(cancel_time, 6),
        "drain_seconds": round(run_time, 6),
    })
    report(
        f"cancel-heavy: cancelled {n_events - n_events // 10} in "
        f"{cancel_time:.4f}s, drained survivors in {run_time:.4f}s"
    )


# ---------------------------------------------------------------------------
# 3. Message plane: broadcast-flood delivery throughput
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Flood(Message):
    round_index: int = 0


def _run_flood(n: int, bursts: int, rounds: int):
    """Broadcast flood: every node sends ``bursts`` messages to every
    neighbor in each round.  Returns (wall seconds, delivered count,
    heap high-water, directed link count)."""
    sim = Simulator()
    topo = DynamicTopology(radio_range=1.1)
    for node, pos in enumerate(grid_positions(n, spacing=1.0)):
        topo.add_node(node, pos)
    bounds = TimeBounds(nu=0.5, min_delay_fraction=0.25)
    delivered = [0]

    def sink(src, dst, message):
        delivered[0] += 1

    channel = ChannelLayer(
        sim, topo, bounds, RandomSource(7).stream("c"),
        deliver=sink,
    )

    def burst(round_index):
        # ``bursts`` back-to-back broadcasts per node: long per-link
        # FIFO trains, so the engine holds every message of a round.
        for b in range(bursts):
            message = Flood(round_index * bursts + b)
            for node in range(n):
                channel.broadcast(node, topo.sorted_neighbors(node), message)

    for round_index in range(rounds):
        # Rounds are spaced past nu so each round's traffic fully
        # drains before the next burst event fires.
        sim.schedule_at(round_index * 1.0, burst, round_index)
    elapsed = _timed(sim.run)
    directed_links = 2 * len(topo.links())
    assert channel.stats.dropped_link_down == 0
    high_water = sim.stats()["scheduler"]["high_water"]
    return elapsed, delivered[0], high_water, directed_links


def test_message_plane_flood_throughput(report):
    n = 1000
    bursts = 25
    rounds = 2

    elapsed, delivered, high_water, directed_links = min(
        (_run_flood(n=n, bursts=bursts, rounds=rounds) for _ in range(3)),
        key=lambda r: r[0],
    )
    assert delivered == directed_links * bursts * rounds
    throughput = delivered / elapsed if elapsed else math.inf

    _record("message_plane", {
        "n": n,
        "directed_links": directed_links,
        "messages": delivered,
        "seconds": round(elapsed, 6),
        "msgs_per_second": round(throughput),
        "heap_high_water": high_water,
    })
    report(
        f"message plane n={n}: {delivered} msgs in {elapsed:.3f}s "
        f"({throughput:,.0f} msg/s), heap high-water {high_water}"
    )


# ---------------------------------------------------------------------------
# 4. Mobility plane: kinetic link prediction vs the fixed-step oracle
# ---------------------------------------------------------------------------


class _MobilitySink:
    def on_message(self, src, message):
        pass

    def on_link_up(self, peer, moving):
        pass

    def on_link_down(self, peer):
        pass


def _mobility_plan(n, arena, hop, seed=5):
    """Deterministic high-mobility plan: one long leg per node, every
    node launched within the first two virtual seconds (so all ``n``
    flights overlap), destinations clamped to the arena."""
    rnd = random.Random(seed)
    positions = [
        Point(rnd.uniform(0, arena), rnd.uniform(0, arena)) for _ in range(n)
    ]
    plan = []
    for node in range(n):
        cur = positions[node]
        dest = Point(
            min(max(cur.x + rnd.uniform(-hop, hop), 0.0), arena),
            min(max(cur.y + rnd.uniform(-hop, hop), 0.0), arena),
        )
        plan.append(
            (rnd.uniform(0.0, 2.0), node, dest, rnd.uniform(2.0, 6.0))
        )
    return positions, plan


def _run_mobility_churn(controller_cls, positions, plan, radio):
    sim = Simulator()
    topo = DynamicTopology(radio_range=radio)
    link = LinkLayer(sim, topo)
    channel = ChannelLayer(
        sim, topo, TimeBounds(), RandomSource(0).stream("c"),
        deliver=link.deliver,
    )
    link.bind_channel(channel)
    for node, pos in enumerate(positions):
        topo.add_node(node, pos)
        link.register(node, _MobilitySink())
    controller = controller_cls(sim, topo, link, RandomSource(1))
    for start, node, dest, speed in plan:
        sim.schedule_at(start, controller.move_node, node, dest, speed)
    elapsed = _timed(sim.run)
    return (
        elapsed,
        controller.stats(),
        set(topo.links()),
        [topo.position(node) for node in range(len(positions))],
    )


def test_mobility_churn_kinetic_vs_fixed_step(report):
    """Kinetic certificates vs the fixed-step oracle under total churn.

    n=1000 nodes each fly one long waypoint leg, all concurrently.  The
    update-count comparison is deterministic (both count every
    ``set_position(s)``/reposition they execute), so it asserts
    unconditionally; the wall-clock speedup is gated on event-loop
    calibration jitter.
    Equivalence — identical final positions and link sets — asserts
    unconditionally too: it is what makes the speedup a free lunch.
    """
    n, arena, radio, hop = 1000, 400.0, 4.0, 100.0
    positions, plan = _mobility_plan(n, arena, hop)

    calibrations = [_calibrate_events_per_second()]
    kin = min(
        (_run_mobility_churn(MobilityController, positions, plan, radio)
         for _ in range(2)),
        key=lambda r: r[0],
    )
    fix = min(
        (_run_mobility_churn(FixedStepController, positions, plan, radio)
         for _ in range(2)),
        key=lambda r: r[0],
    )
    calibrations.append(_calibrate_events_per_second())
    jitter = max(calibrations) / min(calibrations) - 1.0

    # Equivalence at quiescence: same links, same exact positions.
    assert kin[2] == fix[2], "link sets diverged from the fixed-step oracle"
    assert kin[3] == fix[3], "positions diverged from the fixed-step oracle"

    kin_updates = kin[1]["position_updates"]
    fix_updates = fix[1]["position_updates"]
    update_ratio = fix_updates / kin_updates if kin_updates else math.inf
    speedup = fix[0] / kin[0] if kin[0] else math.inf

    _record("mobility_churn", {
        "n": n,
        "arena": arena,
        "radio_range": radio,
        "max_leg": hop,
        "links_final": len(kin[2]),
        "kinetic_seconds": round(kin[0], 6),
        "fixed_step_seconds": round(fix[0], 6),
        "kinetic_updates": kin_updates,
        "fixed_step_updates": fix_updates,
        "update_ratio": round(update_ratio, 2),
        "speedup": round(speedup, 2),
        "crossings_scheduled": kin[1]["crossings_scheduled"],
        "crossing_events": kin[1]["crossing_events"],
        "horizon_events": kin[1]["horizon_events"],
        "calibration_jitter": round(jitter, 4),
    })
    report(
        f"mobility churn n={n}: kinetic {kin[0]:.3f}s "
        f"({kin_updates} updates), fixed-step {fix[0]:.3f}s "
        f"({fix_updates} updates) -> {update_ratio:.1f}x fewer updates, "
        f"{speedup:.1f}x wall (jitter {jitter:.1%})"
    )
    assert update_ratio >= 3.0, (
        f"kinetic path should execute >=3x fewer topology updates, "
        f"got {update_ratio:.2f}x"
    )
    if jitter > 0.05:
        pytest.skip(
            f"calibration jitter {jitter:.1%} > 5%: box too noisy for a "
            "wall-clock bound (numbers recorded above)"
        )
    assert speedup >= 2.0, (
        f"kinetic path should be >=2x faster under total churn, "
        f"got {speedup:.2f}x"
    )


# ---------------------------------------------------------------------------
# 5. Invariant-monitor suite: event-scoped checks against a plain run
# ---------------------------------------------------------------------------


def _crash_disk_config(side=25, density=9.0, radio=3.0, seed=1):
    """The e2e ledger's ``disk625-alg2-crash`` shape, built here: one
    node per cell of a side x side lattice (a cell's area is
    pi*r^2/density), three crashes on the main diagonal at t=10."""
    cell = radio * math.sqrt(math.pi / density)
    rng = random.Random(seed)
    positions = [
        Point((i % side + rng.random()) * cell,
              (i // side + rng.random()) * cell)
        for i in range(side * side)
    ]
    crashes = [(10.0, (side + 1) * (q * side // 4)) for q in (1, 2, 3)]
    return ScenarioConfig(
        positions=positions, radio_range=radio, algorithm="alg2",
        seed=seed, crashes=crashes,
    )


def test_monitor_suite_overhead(report):
    """The default monitor suite must cost at most 3x the plain run.

    Every check is event-scoped (it reads only the nodes the event
    touched), so the suite's cost per event is O(degree), not O(n).
    ``monitor_checks`` is deterministic; the wall-clock bar is
    jitter-gated like the other guards.
    """
    from repro.explore.monitors import (
        MonitorSuite, build_monitors, default_monitor_specs,
    )

    until = 30.0
    config = _crash_disk_config()
    # The suite the ledger's until=120 crash run would get (progress
    # threshold 72), timed over its first 30 time units: a threshold
    # scaled to 30 would flag the slow first entries of the bootstrap.
    specs = default_monitor_specs(
        {"algorithm": "alg2", "crashes": [list(c) for c in config.crashes]},
        120.0,
    )

    def run(with_suite):
        simulation = Simulation(config)
        suite = None
        if with_suite:
            suite = MonitorSuite(build_monitors(specs))
            suite.attach(simulation)
        started = time.perf_counter()
        result = simulation.run(until=until)
        if suite is not None:
            suite.finalize()
        elapsed = time.perf_counter() - started
        if suite is not None:
            assert suite.violation is None, suite.violation
            return elapsed, result.engine["executed_events"], suite.checks
        return elapsed, result.engine["executed_events"], 0

    calibrations = [_calibrate_events_per_second()]
    plain_runs, suite_runs = [], []
    for _ in range(3):
        plain_runs.append(run(False))
        suite_runs.append(run(True))
    calibrations.append(_calibrate_events_per_second())
    jitter = max(calibrations) / min(calibrations) - 1.0

    plain, suite = min(plain_runs), min(suite_runs)
    assert plain[1] == suite[1] > 0
    assert len({checks for _, _, checks in suite_runs}) == 1
    ratio = suite[0] / plain[0]
    _record("monitor_suite", {
        "nodes": len(config.positions),
        "until": until,
        "monitors": [spec["name"] for spec in specs],
        "events": plain[1],
        "monitor_checks": suite[2],
        "plain_seconds": round(plain[0], 6),
        "suite_seconds": round(suite[0], 6),
        "calibration_jitter": round(jitter, 4),
    })
    report(
        f"monitor suite n={len(config.positions)} until={until}: plain "
        f"{plain[0]:.3f} s, suite {suite[0]:.3f} s ({ratio:.2f}x, "
        f"{suite[2]:,} checks; jitter {jitter:.1%})"
    )
    if jitter > 0.05:
        pytest.skip(
            f"calibration jitter {jitter:.1%} > 5%: box too noisy for a "
            "wall-clock bound (numbers recorded above)"
        )
    assert suite[0] <= 3.0 * plain[0], (
        f"monitor suite costs {ratio:.2f}x the plain run (bar: 3x)"
    )
