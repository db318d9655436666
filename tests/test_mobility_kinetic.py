"""Kinetic mobility against its hop oracle; deferred pairs, cached views.

The kinetic engine and the fixed-step oracle
(``tests/oracles/fixed_step.py``) are *not* bit-identical mid-flight
(the oracle quantizes motion to hops), so the contract tested here is
the one both guarantee:

* identical destinations and identical link sets whenever the network
  is quiescent (every node at rest) — and both equal the ground truth
  recomputed from raw positions;
* kinetic link events fire at the analytically exact crossing times,
  and mid-flight the link graph is the unit-disk graph of the true
  positions after every crossing and at every sampled instant;
* unchanged safety verdicts and failure-locality verdicts on crash
  scenarios;
* bit-identical RunReports across reruns *within* each.

Plus unit coverage for ``DynamicTopology.set_position``'s deferred
pairs and the version-counter-backed cached views.
"""

import math
import random

import pytest

from oracles import fixed_step
from repro.metrics.safety import SafetyViolation
from repro.explore import RandomStrategy, run_controlled
from repro.explore.scenarios import build_scenario
from repro.mobility import MobilityController, RandomWaypoint
from repro.mobility.kinetic import _clear_of
from repro.net.channel import ChannelLayer
from repro.net.geometry import Point, line_positions
from repro.net.linklayer import LinkLayer
from repro.net.topology import DynamicTopology
from repro.runtime.simulation import ScenarioConfig, Simulation
from repro.sim.clock import TimeBounds
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority
from repro.sim.rng import RandomSource


class NullHandler:
    def on_message(self, src, message):
        pass

    def on_link_up(self, peer, moving):
        pass

    def on_link_down(self, peer):
        pass


def build_stack(positions, radio=1.5, hop_oracle=False, seed=0):
    sim = Simulator()
    topo = DynamicTopology(radio_range=radio)
    link = LinkLayer(topo)
    channel = ChannelLayer(
        sim, topo, TimeBounds(), RandomSource(seed).stream("c"),
        deliver=link.deliver,
    )
    link.bind_channel(channel)
    for i, p in enumerate(positions):
        topo.add_node(i, p)
        link.register(i, NullHandler())
    cls = fixed_step.FixedStepController if hop_oracle else MobilityController
    controller = cls(sim, topo, link, RandomSource(seed))
    return sim, topo, link, controller


def ground_truth_links(topo):
    ids = topo.nodes()
    r = topo.radio_range
    truth = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if topo.position(a).distance_to(topo.position(b)) <= r:
                truth.add((a, b))
    return truth


def misjudged_pairs(topo, mobility, slack=1e-9):
    """Pairs whose link state disagrees with their true distance.

    Pairs within a nonzero ``slack`` of the radio range are exempt:
    there the link toggles at a refined root, not at the exact boundary.
    """
    ids = topo.nodes()
    r = topo.radio_range
    pos = [mobility.position_now(n) for n in ids]
    wrong = []
    for i, a in enumerate(ids):
        for j in range(i + 1, len(ids)):
            d = pos[i].distance_to(pos[j])
            if slack and abs(d - r) <= slack:
                continue
            if (d <= r) != topo.has_link(a, ids[j]):
                wrong.append((a, ids[j]))
    return wrong


def watch_ground_truth(sim, topo, mobility, until, every=0.25):
    """Check the link graph against the true positions after every
    crossing event and every ``every`` vt up to ``until``.

    Returns ``(failures, checks)``: the ``(time, pairs)`` of every check
    that found a wrong link, and a one-slot count of checks run.  Call
    before any certificate is scheduled, so every crossing runs the
    wrapped handler.
    """
    engine = mobility._kinetic
    failures = []
    checks = [0]

    def check():
        checks[0] += 1
        wrong = misjudged_pairs(topo, mobility)
        if wrong:
            failures.append((sim.now, wrong))

    crossing = engine._pair_event

    def pair_event(*args):
        crossing(*args)
        check()

    engine._pair_event = pair_event
    for k in range(1, int(until / every) + 1):
        sim.schedule_at(k * every, check, priority=EventPriority.MONITOR)
    return failures, checks


# ----------------------------------------------------------------------
# set_position: deferred pairs
# ----------------------------------------------------------------------


def test_set_position_skips_deferred_pairs():
    topo = DynamicTopology(radio_range=1.0)
    topo.add_node(0, Point(0, 0))
    topo.add_node(1, Point(5, 0))  # stale stored position of a mover
    topo.add_node(2, Point(0.5, 0))
    # Move node 0 right next to node 1's stored position: the deferred
    # pair (0, 1) must not toggle, the live pair (0, 2) must.
    diff = topo.set_position(0, Point(4.9, 0), deferred={1})
    assert diff.added == [] and diff.removed == [(0, 2)]
    assert not topo.has_link(0, 1)
    # Not deferred, the same pair is judged on the stored positions.
    diff = topo.set_position(0, Point(4.8, 0))
    assert diff.added == [(0, 1)] and diff.removed == []


def test_set_position_keeps_a_deferred_link_up():
    topo = DynamicTopology(radio_range=1.0)
    topo.add_node(0, Point(0, 0))
    topo.add_node(1, Point(0.5, 0))  # stale stored position of a mover
    topo.add_node(2, Point(-0.5, 0))
    # Node 0 leaves both stored positions behind: only the live pair
    # (0, 2) goes down; the deferred link stays for its certificate.
    diff = topo.set_position(0, Point(-3.0, 0), deferred={1})
    assert diff.added == [] and diff.removed == [(0, 2)]
    assert topo.has_link(0, 1)


# Each caller of the kinetic engine's ``_apply`` stores node 0 at
# (-0.9, 0) at t = 0.4.  Node 1 left (0, 0) at t = 0 at unit speed, so
# its stored position is still (0, 0) — 0.9 away, in range — while it
# truly sits at (0.4, 0), 1.3 away.  The pair is deferred to its
# crossing certificate and must never link.


def _teleport_next_to_a_mover(ctl):
    ctl.move_node(0, Point(-0.9, 0), speed=0.0)


def _crash_next_to_a_mover(ctl):
    ctl._linklayer.crash(0)
    ctl.note_crash(0)


def _retarget_next_to_a_mover(ctl):
    ctl.move_node(0, Point(-5.0, 0), speed=1.0)


APPLY_CALLERS = {
    # (node 0's flight from t = 0, or None; what happens at t = 0.4)
    "teleport": (None, _teleport_next_to_a_mover),
    "arrival": (Point(-0.9, 0), None),
    "crash-freeze": (Point(-0.9, -5), _crash_next_to_a_mover),
    "retarget-freeze": (Point(-0.9, -5), _retarget_next_to_a_mover),
}


@pytest.mark.parametrize("caller", sorted(APPLY_CALLERS))
def test_apply_defers_pairs_with_other_movers(caller):
    flight, at_t = APPLY_CALLERS[caller]
    start = Point(-5.0, 5.0) if flight is None else Point(-0.9, 5.0)
    sim, topo, link, ctl = build_stack([start, Point(0, 0)], radio=1.0)
    events = []
    link.observers.append(lambda kind, a, b: events.append((kind, sim.now)))
    ctl.move_node(1, Point(20, 0), speed=1.0)
    if flight is not None:
        ctl.move_node(0, flight, speed=12.5)  # at (-0.9, 0) at t = 0.4
    if at_t is not None:
        sim.schedule_at(0.4, at_t, ctl)
    seen = []
    sim.schedule_at(0.4, lambda: seen.append(
        (topo.position(0), topo.position(1), topo.has_link(0, 1))
    ), priority=EventPriority.MONITOR)
    sim.run(until=5.0)
    position, stale, linked = seen[0]
    assert position.distance_to(Point(-0.9, 0)) < 1e-9
    assert stale == Point(0, 0)
    assert not linked
    assert events == []


# ----------------------------------------------------------------------
# Version counter and cached views
# ----------------------------------------------------------------------


def test_cached_views_are_stable_between_graph_changes():
    topo = DynamicTopology(radio_range=1.1)
    for i, p in enumerate(line_positions(5, spacing=1.0)):
        topo.add_node(i, p)
    v = topo.version
    n_first = topo.neighbors(2)
    s_first = topo.sorted_neighbors(2)
    assert n_first == frozenset({1, 3})
    assert s_first == (1, 3)
    # Pure position updates that change no link leave the version and
    # the cached objects untouched.
    topo.set_position(2, Point(2.0, 0.1))
    assert topo.version == v
    assert topo.neighbors(2) is n_first
    assert topo.sorted_neighbors(2) is s_first
    # A link change bumps the version and invalidates both views.
    topo.set_position(4, Point(3.0, 0.5))
    assert topo.version > v
    assert topo.neighbors(3) == frozenset({2, 4})


def test_distances_from_is_memoized_against_version():
    topo = DynamicTopology(radio_range=1.1)
    for i, p in enumerate(line_positions(6, spacing=1.0)):
        topo.add_node(i, p)
    first = topo.distances_from(0)
    assert topo.distances_from(0) is first  # memo hit, same object
    assert first[5] == 5
    topo.set_position(5, Point(0.0, 1.0))  # 5 now adjacent to 0
    second = topo.distances_from(0)
    assert second is not first
    assert second[5] == 1


# ----------------------------------------------------------------------
# Exact crossing behavior of the kinetic engine
# ----------------------------------------------------------------------


def test_two_movers_cross_at_analytic_times():
    sim, topo, link, ctl = build_stack(
        [Point(0, 0), Point(10, 0.9)], radio=1.5
    )
    events = []
    link.observers.append(lambda kind, a, b: events.append((kind, sim.now)))
    ctl.move_node(0, Point(10, 0.0), speed=1.0)
    ctl.move_node(1, Point(0, 0.9), speed=1.0)
    sim.run(until=30.0)
    gap = math.sqrt(1.5**2 - 0.9**2)  # x-gap when distance equals r
    t_in = (10 - gap) / 2.0
    t_out = (10 + gap) / 2.0
    assert [k for k, _ in events] == ["up", "down"]
    assert events[0][1] == pytest.approx(t_in, abs=1e-9)
    assert events[1][1] == pytest.approx(t_out, abs=1e-9)


def test_teleport_into_a_movers_path_is_not_missed():
    # A mover certifies pairs against stored positions; a teleport jumps
    # a third party into its path after certification.  The engine must
    # re-certify and still produce the link.
    sim, topo, link, ctl = build_stack(
        [Point(0, 0), Point(50, 50)], radio=1.0
    )
    events = []
    link.observers.append(lambda kind, a, b: events.append((kind, sim.now)))
    ctl.move_node(0, Point(20, 0), speed=1.0)
    sim.schedule(5.0, lambda: ctl.move_node(1, Point(10, 0), speed=0.0))
    sim.run(until=40.0)
    kinds = [k for k, _ in events]
    assert "up" in kinds  # mover reached the teleported node
    assert events[kinds.index("up")][1] == pytest.approx(9.0, abs=1e-9)


def test_retarget_mid_flight_pins_position_and_reroutes():
    sim, topo, link, ctl = build_stack([Point(0, 0), Point(4, 3)], radio=1.0)
    ctl.move_node(0, Point(8, 0), speed=1.0)
    # At t=4 node 0 sits at (4, 0); retarget straight up toward (4, 3).
    sim.schedule(4.0, lambda: ctl.move_node(0, Point(4, 3), speed=1.0))
    events = []
    link.observers.append(lambda kind, a, b: events.append((kind, sim.now)))
    sim.run(until=20.0)
    assert topo.position(0) == Point(4, 3)
    # Link to node 1 comes up when |(4, y) - (4, 3)| = 1 -> y = 2, t = 6.
    ups = [t for k, t in events if k == "up"]
    assert ups and ups[0] == pytest.approx(6.0, abs=1e-9)


# ----------------------------------------------------------------------
# Ground truth mid-flight: the link graph is the unit-disk graph of the
# true positions at every crossing and every sampled instant
# ----------------------------------------------------------------------


def _waypoint_stack(seed, n=30, side=8.0, radio=1.5, movers=10):
    rnd = random.Random(seed)
    positions = [
        Point(rnd.uniform(0, side), rnd.uniform(0, side)) for _ in range(n)
    ]
    sim, topo, link, ctl = build_stack(positions, radio=radio, seed=seed)
    for node in rnd.sample(range(n), movers):
        ctl.attach(node, RandomWaypoint(
            side, side, speed_range=(0.5, 2.0), pause_range=(0.2, 2.0)
        ))
    return sim, topo, link, ctl


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_link_graph_matches_true_positions_mid_flight(seed):
    until = 40.0
    sim, topo, link, ctl = _waypoint_stack(seed)
    failures, checks = watch_ground_truth(sim, topo, ctl, until)
    ctl.start()
    sim.run(until=until)
    assert ctl.stats()["crossing_events"] > 100
    assert checks[0] > int(until / 0.25) + 100
    assert failures == []


@pytest.mark.fuzz
@pytest.mark.parametrize("algorithm", ["alg2", "alg1-greedy", "alg1-linial"])
@pytest.mark.parametrize("seed", range(30))
def test_explore_waypoint_link_graph_matches_true_positions(algorithm, seed):
    # The same check over the explore campaigns' mobility family, under
    # a random controlled schedule and the invariant monitors.
    entry = build_scenario("mobility-waypoint", algorithm, seed=seed)
    watched = []

    def watch(simulation):
        watched.append(watch_ground_truth(
            simulation.sim, simulation.topology, simulation.mobility,
            entry["until"],
        ))

    run_controlled(
        entry["scenario"], entry["until"], RandomStrategy(seed=seed),
        on_simulation=watch,
    )
    failures, checks = watched[0]
    assert checks[0] > 0
    assert failures == []


def test_crossing_that_changes_cell_still_discovers_further_along():
    # Node 0 flies along y = 0.5 at unit speed from x = 0.25; horizons
    # refresh its stored position every half range (x = 0.75, 1.25,
    # ...).  Each fence node comes into range at x = k + 0.1, just past
    # a cell boundary and before the horizon that sees the new cell: a
    # crossing there must leave the stored cell alone, or that horizon
    # skips its discovery scan.  The target, on the path at x = 4.5,
    # lies outside the launch window; its link must still come up
    # exactly at x = 3.5.
    h = 0.9
    lead = math.sqrt(1.0 - h * h)
    fences = [Point(k + 0.1 + lead, 0.5 + h) for k in (1, 2, 3)]
    positions = [Point(0.25, 0.5), *fences, Point(4.5, 0.5)]
    sim, topo, link, ctl = build_stack(positions, radio=1.0)
    target = len(positions) - 1
    ups = []
    link.observers.append(
        lambda kind, a, b: ups.append((sim.now, b)) if kind == "up" else None
    )
    ctl.move_node(0, Point(12.25, 0.5), speed=1.0)
    sim.run(until=15.0)
    fence_ups = [t for t, b in ups if b in (1, 2, 3)]
    assert fence_ups == pytest.approx([0.85, 1.85, 2.85], abs=1e-9)
    assert [t for t, b in ups if b == target] == pytest.approx(
        [3.25], abs=1e-9
    )


def test_link_goes_down_at_the_analytic_exit():
    # A mover passes a static node at lateral offsets h; the link is up
    # exactly while |x - 5| <= sqrt(r² - h²).  The exit is certified
    # right after the entry fires, where the squared and the hypot
    # boundary tests can disagree: the certificate must still land on
    # the exit root, not on a nudge schedule started at the entry.
    rnd = random.Random(42)
    for _ in range(60):
        h = rnd.uniform(0.0, 0.999)
        speed = rnd.uniform(0.3, 3.0)
        sim, topo, link, ctl = build_stack(
            [Point(0.0, 0.0), Point(5.0, h)], radio=1.0
        )
        events = []
        link.observers.append(lambda kind, a, b: events.append((kind, sim.now)))
        ctl.move_node(0, Point(10.0, 0.0), speed=speed)
        sim.run(until=20.0 / speed)
        half = math.sqrt(1.0 - h * h)
        assert [k for k, _ in events] == ["up", "down"], (h, speed)
        assert events[0][1] == pytest.approx((5.0 - half) / speed, abs=1e-9)
        assert events[1][1] == pytest.approx(
            (5.0 + half) / speed, abs=1e-9
        ), (h, speed)


def test_cheap_rejection_agrees_with_the_full_solve():
    # Every static pair _clear_of rejects must have no crossing by the
    # full piecewise solve; near-range pairs are over-represented.
    rnd = random.Random(7)
    rejected = solved = 0
    for case in range(300):
        radio = rnd.uniform(0.5, 3.0)
        start = Point(rnd.uniform(0, 10), rnd.uniform(0, 10))
        dest = Point(rnd.uniform(0, 10), rnd.uniform(0, 10))
        # A point at distance radio * (1 + eps) from a random spot of
        # the path, on a random side.
        u = rnd.random()
        spot = Point(start.x + (dest.x - start.x) * u,
                     start.y + (dest.y - start.y) * u)
        angle = rnd.uniform(0, 2 * math.pi)
        reach = radio * (1.0 + rnd.choice([1e-12, 1e-9, 1e-6, 1e-3, 0.5]))
        other = Point(spot.x + reach * math.cos(angle),
                      spot.y + reach * math.sin(angle))
        if other.distance_to(start) <= radio:
            continue
        sim, topo, link, ctl = build_stack([start, other], radio=radio)
        ctl.move_node(0, dest, speed=rnd.uniform(0.2, 3.0))
        engine = ctl._kinetic
        motion = engine._motion[0]
        # Probe at a random instant of the flight.
        sim.run(until=rnd.uniform(motion.t0, motion.t1))
        if 0 not in engine._motion or topo.has_link(0, 1):
            continue
        solved += 1
        if _clear_of(motion, other, sim.now, radio * radio):
            rejected += 1
            assert engine._next_crossing(0, 1) is None, case
    assert solved > 150 and 30 < rejected < solved


# ----------------------------------------------------------------------
# Randomized equivalence at quiescent instants
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_quiescent_link_sets_match_fixed_step_and_ground_truth(seed):
    rnd = random.Random(seed)
    positions = [
        Point(rnd.uniform(0, 9), rnd.uniform(0, 9)) for _ in range(24)
    ]
    kin = build_stack(positions, radio=1.4, seed=seed)
    fix = build_stack(positions, radio=1.4, hop_oracle=True, seed=seed)
    for round_no in range(12):
        # A burst of overlapping episodes...
        # (distinct movers: the hop oracle does not support
        # retargeting a node that is already mid-flight)
        for node in rnd.sample(range(24), rnd.randint(1, 5)):
            dest = Point(rnd.uniform(0, 9), rnd.uniform(0, 9))
            speed = rnd.uniform(0.5, 4.0)
            for (_, _, _, ctl) in (kin, fix):
                ctl.move_node(node, dest, speed)
        # ...then run both stacks long past every arrival (quiescence).
        horizon = max(kin[0].now, fix[0].now) + 60.0
        kin[0].run(until=horizon)
        fix[0].run(until=horizon)
        k_links = set(kin[1].links())
        assert k_links == set(fix[1].links()), round_no
        assert k_links == ground_truth_links(kin[1]), round_no
        for n in range(24):
            assert kin[1].position(n) == fix[1].position(n)


@pytest.mark.parametrize("seed", [0, 7])
def test_concurrent_waypoint_scenarios_agree_on_quiescent_snapshots(
    seed, monkeypatch
):
    # Full Simulation stack, several concurrently moving nodes.  The
    # engine and the oracle must both stay safe (strict monitor raises
    # on any violation), and the engine must agree with ground truth
    # whenever sampled mid-run (the kinetic adjacency is maintained
    # from true motion, so it always matches the unit-disk graph of the
    # true positions; stored positions are stale mid-flight by design).
    def factory(node_id):
        if node_id % 3 == 0:
            return RandomWaypoint(
                8.0, 8.0, speed_range=(0.5, 2.5), pause_range=(0.5, 2.0)
            )
        return None

    results = {}
    for fixed in (False, True):
        if fixed:
            fixed_step.install(monkeypatch)
        config = ScenarioConfig(
            positions=line_positions(12, spacing=0.9),
            radio_range=1.0,
            algorithm="alg2",
            seed=seed,
            mobility_factory=factory,
        )
        simulation = Simulation(config)
        assert isinstance(
            simulation.mobility, fixed_step.FixedStepController
        ) is fixed
        checks = []

        def check(simulation=simulation, checks=checks):
            checks.append(not misjudged_pairs(
                simulation.topology, simulation.mobility, slack=0.0
            ))

        if not fixed:
            for t in range(10, 100, 10):
                simulation.sim.schedule_at(float(t), check)
        results[fixed] = simulation.run(until=120.0)
        assert all(checks)
    # Safety violations: zero in both (strict mode would have raised).
    assert results[False].cs_entries > 0
    assert results[True].cs_entries > 0


@pytest.mark.parametrize("fixed", [False, True])
def test_reports_are_bit_identical_across_reruns_within_each_path(
    fixed, monkeypatch
):
    if fixed:
        fixed_step.install(monkeypatch)

    def factory(node_id):
        if node_id in (1, 4):
            return RandomWaypoint(
                6.0, 4.0, speed_range=(1.0, 3.0), pause_range=(0.2, 1.0)
            )
        return None

    def run():
        config = ScenarioConfig(
            positions=line_positions(8, spacing=0.9),
            radio_range=1.0,
            algorithm="alg2",
            seed=13,
            mobility_factory=factory,
            telemetry=True,
            crashes=[(40.0, 3)],
        )
        return Simulation(config).run(until=100.0).report()

    first, second = run(), run()
    assert first.to_json() == second.to_json()
    assert first.diff(second) == {}


def test_crash_scenario_verdicts_match_across_paths(monkeypatch):
    # Failure-locality verdict (the paper's headline property) must not
    # depend on the mobility execution path.
    def factory(node_id):
        if node_id in (2, 9):
            return RandomWaypoint(
                10.0, 3.0, speed_range=(1.0, 2.0), pause_range=(0.5, 1.5)
            )
        return None

    verdicts = {}
    for fixed in (False, True):
        if fixed:
            fixed_step.install(monkeypatch)
        config = ScenarioConfig(
            positions=line_positions(12, spacing=0.9),
            radio_range=1.0,
            algorithm="alg2",
            seed=3,
            mobility_factory=factory,
            crashes=[(30.0, 5)],
        )
        result = Simulation(config).run(until=160.0)
        assert result.locality is not None
        verdicts[fixed] = (
            result.locality["starvation_radius"],
            sorted(result.locality["crashed"]),
        )
    assert verdicts[False] == verdicts[True]


def test_safety_monitor_stays_strict_under_kinetic_churn():
    # High churn with several movers; the safety checker raises on any
    # same-instant double-eat between neighbors.
    def factory(node_id):
        if node_id % 2 == 0:
            return RandomWaypoint(
                5.0, 5.0, speed_range=(1.0, 4.0), pause_range=(0.0, 0.5)
            )
        return None

    config = ScenarioConfig(
        positions=line_positions(10, spacing=0.7),
        radio_range=1.0,
        algorithm="alg2",
        seed=21,
        mobility_factory=factory,
    )
    try:
        result = Simulation(config).run(until=150.0)
    except SafetyViolation as exc:  # pragma: no cover - diagnostic
        pytest.fail(f"kinetic churn broke mutual exclusion: {exc}")
    assert result.cs_entries > 0
