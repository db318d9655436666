"""Unit tests for the FIFO bounded-delay channel layer."""

import pytest

from repro.errors import SimulationError, TopologyError
from repro.net.channel import ChannelLayer
from repro.net.geometry import Point
from repro.net.messages import Message
from repro.net.topology import DynamicTopology
from repro.sim.clock import TimeBounds
from repro.sim.engine import Simulator
from repro.sim.rng import RandomSource

from dataclasses import dataclass


@dataclass(frozen=True)
class Ping(Message):
    seq: int = 0


class Collector:
    def __init__(self):
        self.received = []

    def __call__(self, src, dst, message):
        self.received.append((src, dst, message))


def build(nu=1.0, jitter=True, nodes=3):
    sim = Simulator()
    topo = DynamicTopology(radio_range=1.5)
    for i in range(nodes):
        topo.add_node(i, Point(float(i), 0.0))
    bounds = TimeBounds(nu=nu, min_delay_fraction=0.25 if jitter else 1.0)
    sink = Collector()
    channel = ChannelLayer(
        sim, topo, bounds, RandomSource(1).stream("c"), deliver=sink
    )
    return sim, topo, channel, sink


def test_delivery_within_nu():
    sim, topo, channel, sink = build(nu=2.0)
    for seq in range(20):
        channel.send(0, 1, Ping(seq))
    sim.run()
    assert len(sink.received) == 20
    assert sim.now <= 2.0 + 1e-6


def test_fifo_per_directed_link():
    sim, topo, channel, sink = build(nu=5.0)
    for seq in range(50):
        channel.send(0, 1, Ping(seq))
    sim.run()
    sequence = [m.seq for _, _, m in sink.received]
    assert sequence == sorted(sequence)


def test_send_on_missing_link_rejected():
    sim, topo, channel, sink = build()
    with pytest.raises(TopologyError):
        channel.send(0, 2, Ping())  # distance 2.0 > range 1.5


def test_message_dropped_when_link_fails_in_flight():
    sim, topo, channel, sink = build(nu=1.0, jitter=False)
    channel.send(0, 1, Ping(1))
    # Break the link before delivery time.
    diff = topo.set_position(1, Point(10, 10))
    channel.link_down(0, 1)
    assert diff.removed
    sim.run()
    assert sink.received == []
    assert channel.stats.dropped_link_down == 1


def test_stale_incarnation_dropped_after_reform():
    sim, topo, channel, sink = build(nu=1.0, jitter=False)
    channel.send(0, 1, Ping(1))
    # Link breaks and immediately re-forms before the delivery fires.
    topo.set_position(1, Point(10, 10))
    channel.link_down(0, 1)
    topo.set_position(1, Point(1.0, 0.0))
    sim.run()
    # The in-flight message belonged to the old incarnation.
    assert sink.received == []
    assert channel.stats.dropped_link_down == 1
    # New messages on the new incarnation flow normally.
    channel.send(0, 1, Ping(2))
    sim.run()
    assert [m.seq for _, _, m in sink.received] == [2]


def test_broadcast_reaches_all_neighbors():
    sim, topo, channel, sink = build()
    channel.broadcast(1, topo.neighbors(1), Ping(7))
    sim.run()
    destinations = sorted(dst for _, dst, _ in sink.received)
    assert destinations == [0, 2]


def test_stats_by_kind():
    sim, topo, channel, sink = build()
    channel.send(0, 1, Ping(1))
    channel.send(0, 1, Ping(2))
    sim.run()
    assert channel.stats.sent == 2
    assert channel.stats.delivered == 2
    assert channel.stats.snapshot() == {
        "sent": 2,
        "delivered": 2,
        "dropped_link_down": 0,
        "sent_by_kind": {"Ping": 2},
        "delivered_by_kind": {"Ping": 2},
        "dropped_by_kind": {},
    }


def test_stats_count_drops_per_kind():
    sim, topo, channel, sink = build(nu=1.0, jitter=False)
    channel.send(0, 1, Ping(1))
    topo.set_position(1, Point(10, 10))
    channel.link_down(0, 1)
    sim.run()
    snap = channel.stats.snapshot()
    assert snap["dropped_link_down"] == 1
    assert snap["dropped_by_kind"] == {"Ping": 1}
    assert snap["delivered_by_kind"] == {}


def test_deterministic_delay_mode():
    sim, topo, channel, sink = build(nu=3.0, jitter=False)
    channel.send(0, 1, Ping(0))
    sim.run()
    assert sim.now == pytest.approx(3.0)


def test_first_send_to_a_non_neighbor_raises_and_counts_nothing():
    sim, topo, channel, sink = build()
    with pytest.raises(TopologyError):
        channel.send(0, 2, Ping())
    assert channel.stats.snapshot()["sent"] == 0
    assert channel.stats.sent_by_kind == {}
    assert (0, 2) not in channel._pipes
    assert sim.pending_events == 0


def test_send_after_link_down_raises():
    sim, topo, channel, sink = build(nu=1.0, jitter=False)
    channel.send(0, 1, Ping(1))
    topo.set_position(1, Point(10, 10))
    channel.link_down(0, 1)
    with pytest.raises(TopologyError):
        channel.send(0, 1, Ping(2))
    assert channel.stats.sent == 1
    sim.run()
    assert sink.received == []


def test_controlled_delay_into_the_past_raises():
    sim, topo, channel, sink = build()
    channel.delay_source = lambda src, dst, message: -0.5
    with pytest.raises(SimulationError):
        channel.send(0, 1, Ping())
    assert sim.pending_events == 0


# ----------------------------------------------------------------------
# Every link removal retires both directions' pipes
# ----------------------------------------------------------------------

RETIREMENT_ALGORITHMS = ["alg2", "alg1-greedy", "alg1-linial"]
RETIREMENT_FAMILIES = [
    "static-line", "asym-line", "static-ring", "crash-line",
    "mobility-waypoint", "fig6",
]


def _removals_retire_pipes(algorithm, seed):
    """Run every explore family; after each event, every pipe a pair
    the topology unlinked during it had — either direction — must be
    dead and gone from the channel's table.  Returns the number of
    pipes checked."""
    from repro.explore import runner
    from repro.explore.scenarios import build_scenario
    from repro.explore.schedule import RandomStrategy

    checked = 0
    for family in RETIREMENT_FAMILIES:
        if family == "fig6" and not algorithm.startswith("alg1"):
            continue  # fig6 carries an Algorithm 1 coloring
        entry = build_scenario(family, algorithm, seed)
        before = {}

        def wire(simulation):
            topology, channel = simulation.topology, simulation.channel
            pipes = channel._pipes
            unlink = topology._unlink

            def recording_unlink(a, b):
                for key in ((a, b), (b, a)):
                    pipe = pipes.get(key)
                    if pipe is not None:
                        before.setdefault(key, pipe)
                unlink(a, b)

            def after_event(engine):
                nonlocal checked
                for key, pipe in before.items():
                    assert not pipe[1], (family, key, engine.now)
                    assert pipes.get(key) is not pipe, (
                        family, key, engine.now,
                    )
                checked += len(before)
                before.clear()

            topology._unlink = recording_unlink
            simulation.sim.add_listener(after_event)

        runner.run_controlled(
            entry["scenario"], entry["until"], RandomStrategy(seed=seed),
            on_simulation=wire,
        )
        assert not before, family
    return checked


@pytest.mark.parametrize("algorithm", RETIREMENT_ALGORITHMS)
def test_every_link_removal_retires_both_pipes(algorithm):
    """The channel drops a stale message by its pipe alone only if no
    removal path skips ``link_down``."""
    assert sum(
        _removals_retire_pipes(algorithm, seed) for seed in range(3)
    ) > 0


@pytest.mark.fuzz
@pytest.mark.parametrize("algorithm", RETIREMENT_ALGORITHMS)
@pytest.mark.parametrize("seed", range(30))
def test_fuzz_every_link_removal_retires_both_pipes(algorithm, seed):
    _removals_retire_pipes(algorithm, seed)


# ----------------------------------------------------------------------
# Each removal path, alone: a message sent before the link breaks is
# dropped even though the link has re-formed by its arrival, so only
# its retired pipe can tell it is stale
# ----------------------------------------------------------------------


class Quiet:
    """Link-layer handler that ignores everything."""

    def on_message(self, src, message):
        pass

    def on_link_up(self, peer, moving):
        pass

    def on_link_down(self, peer):
        pass


# Deterministic two-unit delay: a message sent at t lands at t + 2,
# after every path below has broken and re-formed the link.
SLOW = TimeBounds(nu=2.0, min_delay_fraction=1.0)


def _kinetic_pair(a, b):
    from repro.mobility import MobilityController
    from repro.net.linklayer import LinkLayer

    sim = Simulator()
    topo = DynamicTopology(radio_range=1.0)
    link = LinkLayer(topo)
    channel = ChannelLayer(
        sim, topo, SLOW, RandomSource(0).stream("c"), deliver=link.deliver
    )
    link.bind_channel(channel)
    for node, position in enumerate((a, b)):
        topo.add_node(node, position)
        link.register(node, Quiet())
    controller = MobilityController(sim, topo, link, RandomSource(0))
    return sim, topo, channel, controller


def _crossing():
    # Node 0 flies out of node 1's range (down at t = 0.1) and back
    # (up at t = 0.7): two kinetic crossing events.
    sim, topo, channel, ctl = _kinetic_pair(
        Point(0.9, 0.0), Point(0.0, 0.0)
    )
    ctl.move_node(0, Point(1.2, 0.0), speed=1.0)
    sim.schedule_at(0.5, ctl.move_node, 0, Point(0.9, 0.0), 1.0)
    return sim, topo, channel


def _two_mover_crossing():
    # Both ends fly apart (down at t = 0.3), then back (up at t = 0.9).
    sim, topo, channel, ctl = _kinetic_pair(
        Point(0.2, 0.0), Point(-0.2, 0.0)
    )
    ctl.move_node(0, Point(0.8, 0.0), speed=1.0)
    ctl.move_node(1, Point(-0.8, 0.0), speed=1.0)
    sim.schedule_at(0.6, ctl.move_node, 0, Point(0.2, 0.0), 1.0)
    sim.schedule_at(0.6, ctl.move_node, 1, Point(-0.2, 0.0), 1.0)
    return sim, topo, channel


def _teleport():
    # A resting node jumps away and back: two set_position diffs.
    sim, topo, channel, ctl = _kinetic_pair(
        Point(0.5, 0.0), Point(0.0, 0.0)
    )
    sim.schedule_at(0.5, ctl.move_node, 0, Point(5.0, 0.0), 0.0)
    sim.schedule_at(1.0, ctl.move_node, 0, Point(0.5, 0.0), 0.0)
    return sim, topo, channel


def _teleport_mid_flight():
    # A slow mover still in range is frozen, then jumps away and back.
    sim, topo, channel, ctl = _kinetic_pair(
        Point(0.5, 0.0), Point(0.0, 0.0)
    )
    ctl.move_node(0, Point(0.6, 0.0), speed=0.01)
    sim.schedule_at(0.5, ctl.move_node, 0, Point(5.0, 0.0), 0.0)
    sim.schedule_at(1.0, ctl.move_node, 0, Point(0.5, 0.0), 0.0)
    return sim, topo, channel


def _scripted():
    # Replayed churn: force_link down at t = 0.5 and up at t = 1.0,
    # with node positions that never change.
    from repro.runtime.simulation import ScenarioConfig, Simulation

    simulation = Simulation(ScenarioConfig(
        positions=[Point(0.0, 0.0), Point(0.5, 0.0)],
        algorithm="alg2", bounds=SLOW, scripted_hunger={},
        link_script=[[0.5, "down", 0, 1, -1], [1.0, "up", 0, 1, -1]],
    ))
    return simulation.sim, simulation.topology, simulation.channel


REMOVAL_PATHS = {
    "crossing": _crossing,
    "two-mover-crossing": _two_mover_crossing,
    "teleport": _teleport,
    "teleport-mid-flight": _teleport_mid_flight,
    "scripted": _scripted,
}


@pytest.mark.parametrize("path", sorted(REMOVAL_PATHS))
def test_removal_path_retires_the_pipe(path):
    sim, topo, channel = REMOVAL_PATHS[path]()
    sim.schedule_at(0.05, channel.send, 0, 1, Ping(1))
    sim.run(until=0.06)
    pipe = channel._pipes[(0, 1)]
    assert pipe[1]
    sim.run(until=1.5)
    # The link broke once and is back before the message lands.
    assert topo.has_link(0, 1)
    assert not pipe[1] and channel._pipes.get((0, 1)) is not pipe
    sim.run(until=3.0)
    stats = channel.stats
    assert stats.sent_by_kind["Ping"] == stats.dropped_by_kind["Ping"] == 1
    assert "Ping" not in stats.delivered_by_kind
