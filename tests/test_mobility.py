"""Unit tests for mobility models and the controller."""

import pytest

from oracles.fixed_step import FixedStepController
from repro.errors import ConfigurationError
from repro.mobility import (
    Episode,
    MobilityController,
    RandomWalk,
    RandomWaypoint,
    ScriptedMobility,
    ScriptedMove,
    StaticMobility,
)
from repro.net.channel import ChannelLayer
from repro.net.geometry import Point
from repro.net.linklayer import LinkLayer
from repro.net.topology import DynamicTopology
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


def build(nodes=3, spacing=1.0, fixed_step=False):
    """A small line; ``fixed_step=True`` moves it with the hop oracle."""
    sim = Simulator()
    topo = DynamicTopology(radio_range=1.2)
    link = LinkLayer(topo)
    channel = ChannelLayer(
        sim, topo, TimeBounds(), RandomSource(0).stream("c"),
        deliver=link.deliver,
    )
    link.bind_channel(channel)
    for i in range(nodes):
        topo.add_node(i, Point(i * spacing, 0.0))
        link.register(i, NullHandler())
    cls = FixedStepController if fixed_step else MobilityController
    controller = cls(sim, topo, link, RandomSource(7))
    return sim, topo, link, controller


def test_static_model_never_moves():
    sim, topo, link, controller = build()
    controller.attach(0, StaticMobility())
    controller.start()
    sim.run(until=100.0)
    assert topo.position(0) == Point(0.0, 0.0)


def test_move_node_reaches_destination_at_speed():
    # Kinetic execution arrives at exactly dist/speed.
    sim, topo, link, controller = build()
    controller.move_node(0, Point(0.0, 4.0), speed=2.0)
    sim.run()
    assert topo.position(0) == Point(0.0, 4.0)
    assert sim.now == pytest.approx(4.0 / 2.0)


def test_move_node_fixed_step_arrival_leads_by_one_step():
    sim, topo, link, controller = build(fixed_step=True)
    controller.move_node(0, Point(0.0, 4.0), speed=2.0)
    sim.run()
    assert topo.position(0) == Point(0.0, 4.0)
    # 4 units at speed 2 with step 0.25 -> last step at t = 2.0 - step_time
    assert sim.now == pytest.approx(4.0 / 2.0 - 0.25 / 2.0)


def test_moving_flag_set_during_episode():
    sim, topo, link, controller = build()
    controller.move_node(0, Point(0.0, 2.0), speed=1.0)
    observed = []
    sim.schedule(1.0, lambda: observed.append(link.is_moving(0)))
    sim.run()
    assert observed == [True]
    assert not link.is_moving(0)


@pytest.mark.parametrize("fixed_step", [False, True])
def test_teleport_flips_topology_instantly(fixed_step):
    sim, topo, link, controller = build(fixed_step=fixed_step)
    controller.move_node(2, Point(0.0, 0.5), speed=0.0)
    sim.run()
    assert topo.has_link(0, 2)
    assert not link.is_moving(2)


@pytest.mark.parametrize("fixed_step", [False, True])
def test_crashed_node_freezes_mid_flight(fixed_step):
    sim, topo, link, controller = build(fixed_step=fixed_step)
    controller.move_node(0, Point(0.0, 10.0), speed=1.0)
    sim.schedule(3.0, lambda: link.crash(0))
    sim.run()
    assert topo.position(0).y < 10.0  # froze on the way
    assert not link.is_moving(0)


@pytest.mark.parametrize("fixed_step", [False, True])
def test_crash_hook_freezes_at_exact_position(fixed_step):
    # The runtime wires CrashInjector -> controller.note_crash; the
    # kinetic engine then pins the exact position at the crash instant
    # (the hop oracle freezes at its last materialized step).
    sim, topo, link, controller = build(fixed_step=fixed_step)
    controller.move_node(0, Point(0.0, 10.0), speed=1.0)

    def crash():
        link.crash(0)
        controller.note_crash(0)

    sim.schedule(3.0, crash)
    sim.run()
    frozen = topo.position(0)
    if fixed_step:
        # The step timer materializes positions one step ahead of true
        # motion, so the freeze lands within one step of y = 3.
        assert abs(frozen.y - 3.0) <= 0.25 + 1e-9
    else:
        assert frozen.y == pytest.approx(3.0)
    assert not link.is_moving(0)


def test_crashed_node_never_starts_episode():
    sim, topo, link, controller = build()
    link.crash(0)
    controller.attach(0, ScriptedMobility([ScriptedMove(1.0, Point(5, 5))]))
    controller.start()
    sim.run()
    assert topo.position(0) == Point(0.0, 0.0)


def test_scripted_mobility_replays_moves_in_order():
    sim, topo, link, controller = build()
    controller.attach(
        0,
        ScriptedMobility(
            [
                ScriptedMove(5.0, Point(0.0, 2.0)),
                ScriptedMove(10.0, Point(0.0, 0.0)),
            ]
        ),
    )
    controller.start()
    sim.run(until=7.0)
    assert topo.position(0) == Point(0.0, 2.0)
    sim.run(until=20.0)
    assert topo.position(0) == Point(0.0, 0.0)


def test_random_waypoint_stays_in_arena():
    sim, topo, link, controller = build()
    model = RandomWaypoint(5.0, 5.0, speed_range=(1.0, 2.0), pause_range=(0.0, 0.5))
    controller.attach(1, model)
    controller.start()
    positions = []
    for t in range(1, 40):
        sim.schedule_at(float(t), lambda: positions.append(topo.position(1)))
    sim.run(until=40.0)
    assert positions, "node never sampled"
    for p in positions:
        assert 0.0 <= p.x <= 5.0 and 0.0 <= p.y <= 5.0


def test_random_walk_hops_are_bounded():
    sim, topo, link, controller = build()
    model = RandomWalk(10.0, 10.0, hop_range=(0.5, 1.0), speed=2.0,
                       pause_range=(0.0, 0.1))
    start = topo.position(1)
    episode = model.next_episode(1, 0.0, topo, RandomSource(3).stream("m"))
    assert episode is not None
    hop = start.distance_to(episode.destination)
    assert hop <= 1.0 + 1e-9


def test_episode_validation():
    with pytest.raises(ConfigurationError):
        Episode(start_delay=-1.0, destination=Point(0, 0), speed=1.0)
    with pytest.raises(ConfigurationError):
        RandomWaypoint(0.0, 5.0)
    with pytest.raises(ConfigurationError):
        RandomWalk(5.0, 5.0, speed=0)


@pytest.mark.parametrize("fixed_step", [False, True])
def test_topology_updates_generate_link_events_along_path(fixed_step):
    sim, topo, link, controller = build(nodes=2, spacing=5.0,
                                        fixed_step=fixed_step)
    events = []
    link.observers.append(lambda kind, a, b: events.append((kind, sim.now)))
    # Walk node 0 past node 1 and far beyond: link must come up then down.
    controller.move_node(0, Point(10.0, 0.0), speed=1.0)
    sim.run()
    kinds = [k for k, _ in events]
    assert kinds == ["up", "down"]


def test_kinetic_link_events_fire_at_exact_crossing_times():
    sim, topo, link, controller = build(nodes=2, spacing=5.0)
    events = []
    link.observers.append(lambda kind, a, b: events.append((kind, sim.now)))
    controller.move_node(0, Point(10.0, 0.0), speed=1.0)
    sim.run()
    # Radio range 1.2: in range at x = 5 - 1.2, out of range at 5 + 1.2.
    assert events[0][0] == "up"
    assert events[0][1] == pytest.approx(5.0 - 1.2, abs=1e-9)
    assert events[1][0] == "down"
    assert events[1][1] == pytest.approx(5.0 + 1.2, abs=1e-9)
    stats = controller.stats()
    assert stats["crossing_events"] == 2
    # 10 units of travel: far fewer updates than the oracle's 40 hops.
    assert stats["position_updates"] < 40
