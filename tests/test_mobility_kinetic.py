"""Kinetic mobility against its hop oracle; batching, cached views.

The kinetic engine and the fixed-step oracle
(``tests/oracles/fixed_step.py``) are *not* bit-identical mid-flight
(the oracle quantizes motion to hops), so the contract tested here is
the one both guarantee:

* identical destinations and identical link sets whenever the network
  is quiescent (every node at rest) — and both equal the ground truth
  recomputed from raw positions;
* kinetic link events fire at the analytically exact crossing times;
* unchanged safety verdicts and failure-locality verdicts on crash
  scenarios;
* bit-identical RunReports across reruns *within* each.

Plus unit coverage for ``DynamicTopology.set_positions`` (the batched
update entry point) and the version-counter-backed cached views.
"""

import math
import random

import pytest

from oracles import fixed_step
from repro.metrics.safety import SafetyViolation
from repro.mobility import MobilityController, RandomWaypoint
from repro.net.channel import ChannelLayer
from repro.net.geometry import Point, line_positions
from repro.net.linklayer import LinkLayer
from repro.net.topology import DynamicTopology
from repro.runtime.simulation import ScenarioConfig, Simulation
from repro.sim.clock import TimeBounds
from repro.sim.engine import Simulator
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
    link = LinkLayer(sim, topo)
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


# ----------------------------------------------------------------------
# set_positions: the batched update entry point
# ----------------------------------------------------------------------


def test_set_positions_singleton_is_bit_identical_to_set_position():
    rnd = random.Random(11)
    single = DynamicTopology(radio_range=1.3)
    batched = DynamicTopology(radio_range=1.3)
    for i in range(25):
        p = Point(rnd.uniform(0, 6), rnd.uniform(0, 6))
        single.add_node(i, p)
        batched.add_node(i, p)
    for _ in range(200):
        node = rnd.randrange(25)
        dest = Point(rnd.uniform(0, 6), rnd.uniform(0, 6))
        a = single.set_position(node, dest)
        b = batched.set_positions([(node, dest)])
        assert a.added == b.added and a.removed == b.removed
    assert single.links() == batched.links()


def test_set_positions_batch_matches_sequential_final_state():
    rnd = random.Random(23)
    seq = DynamicTopology(radio_range=1.2)
    bat = DynamicTopology(radio_range=1.2)
    for i in range(30):
        p = Point(rnd.uniform(0, 7), rnd.uniform(0, 7))
        seq.add_node(i, p)
        bat.add_node(i, p)
    for _ in range(60):
        movers = rnd.sample(range(30), rnd.randint(1, 6))
        moves = [
            (m, Point(rnd.uniform(0, 7), rnd.uniform(0, 7))) for m in movers
        ]
        before = set(seq.links())
        for node, dest in moves:
            seq.set_position(node, dest)
        after = set(seq.links())
        diff = bat.set_positions(moves)
        # One merged diff, equal to the *net* effect of the sequential
        # application.  Transient toggles through intermediate states
        # (a pair linking against a stale position, then unlinking once
        # the second mover lands) cancel out: every pair is judged once
        # on final positions, so the diff is exactly after-vs-before.
        assert set(diff.added) == after - before
        assert set(diff.removed) == before - after
        assert len(diff.added) == len(set(diff.added))
        assert len(diff.removed) == len(set(diff.removed))
        assert seq.links() == bat.links()
    assert ground_truth_links(bat) == set(bat.links())


def test_set_positions_rejects_duplicate_mover():
    topo = DynamicTopology(radio_range=1.0)
    topo.add_node(0, Point(0, 0))
    from repro.errors import TopologyError

    with pytest.raises(TopologyError):
        topo.set_positions([(0, Point(1, 0)), (0, Point(2, 0))])


def test_set_positions_skips_deferred_pairs():
    topo = DynamicTopology(radio_range=1.0)
    topo.add_node(0, Point(0, 0))
    topo.add_node(1, Point(5, 0))  # stale stored position of a mover
    topo.add_node(2, Point(0.5, 0))
    # Move node 0 right next to node 1's stored position: the deferred
    # pair (0, 1) must not toggle, the live pair (0, 2) must.
    diff = topo.set_positions([(0, Point(4.9, 0))], deferred=[1])
    assert (0, 1) not in diff.added
    assert (0, 2) in diff.removed
    assert not topo.has_link(0, 1)
    # Batch members are never deferred, even if listed.
    diff = topo.set_positions(
        [(0, Point(4.8, 0)), (1, Point(4.0, 0))], deferred=[1]
    )
    assert (0, 1) in diff.added


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
    sim.schedule(5.0, lambda: ctl.teleport(1, Point(10, 0)))
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
    # from true motion, so it always matches ground truth at its own
    # positions).
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
            checks.append(
                set(simulation.topology.links())
                == ground_truth_links(simulation.topology)
            )

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
    # High churn with several movers; strict safety raises on any
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
        strict_safety=True,
    )
    try:
        result = Simulation(config).run(until=150.0)
    except SafetyViolation as exc:  # pragma: no cover - diagnostic
        pytest.fail(f"kinetic churn broke mutual exclusion: {exc}")
    assert result.cs_entries > 0
