"""Unit tests for the link layer: indications, roles, crash model."""

from dataclasses import dataclass
from typing import List, Tuple

from repro.net.channel import ChannelLayer
from repro.net.geometry import Point
from repro.net.linklayer import LinkLayer
from repro.net.messages import Message
from repro.net.topology import DynamicTopology
from repro.sim.clock import TimeBounds
from repro.sim.engine import Simulator
from repro.sim.rng import RandomSource


@dataclass(frozen=True)
class Probe(Message):
    payload: str = ""


class RecordingHandler:
    def __init__(self):
        self.messages: List[Tuple[int, Message]] = []
        self.link_ups: List[Tuple[int, bool]] = []
        self.link_downs: List[int] = []

    def on_message(self, src, message):
        self.messages.append((src, message))

    def on_link_up(self, peer, moving):
        self.link_ups.append((peer, moving))

    def on_link_down(self, peer):
        self.link_downs.append(peer)


def build(nodes=3, spacing=1.0, radio=1.5):
    sim = Simulator()
    topo = DynamicTopology(radio_range=radio)
    handlers = {}
    link = LinkLayer(sim, topo)
    channel = ChannelLayer(
        sim, topo, TimeBounds(), RandomSource(0).stream("c"),
        deliver=link.deliver,
    )
    link.bind_channel(channel)
    for i in range(nodes):
        topo.add_node(i, Point(i * spacing, 0.0))
        handlers[i] = RecordingHandler()
        link.register(i, handlers[i])
    return sim, topo, link, handlers


def test_link_up_roles_static_vs_moving():
    sim, topo, link, handlers = build()
    link.set_moving(2, True)
    diff = topo.set_position(2, Point(0.5, 0.5))  # 2 now sees 0 as well
    link.apply_diff(diff)
    # Node 0 (static) learns of moving node 2; node 2 gets the moving role.
    assert (2, False) in handlers[0].link_ups
    assert (0, True) in handlers[2].link_ups


def test_link_up_between_two_movers_breaks_tie_by_id():
    sim, topo, link, handlers = build(nodes=2, spacing=10.0)
    link.set_moving(0, True)
    link.set_moving(1, True)
    diff = topo.set_position(1, Point(1.0, 0.0))
    link.apply_diff(diff)
    # Lower id (0) plays the static role.
    assert handlers[0].link_ups == [(1, False)]
    assert handlers[1].link_ups == [(0, True)]


def test_broadcast_goes_to_current_neighbors_only():
    sim, topo, link, handlers = build()
    link.broadcast(1, Probe("hello"))
    sim.run()
    assert [src for src, _ in handlers[0].messages] == [1]
    assert [src for src, _ in handlers[2].messages] == [1]


def test_moving_flag_lifecycle():
    sim, topo, link, handlers = build()
    assert not link.is_moving(0)
    link.set_moving(0, True)
    assert link.is_moving(0)
    link.set_moving(0, False)
    assert not link.is_moving(0)


def test_observers_fire_after_indications():
    sim, topo, link, handlers = build()
    events = []
    link.observers.append(lambda kind, a, b: events.append((kind, a, b)))
    diff = topo.set_position(2, Point(50, 50))
    link.apply_diff(diff)
    assert events == [("down", 1, 2)]


def test_crash_marks_only_that_node():
    sim, topo, link, handlers = build()
    link.crash(1)
    assert [n for n in (0, 1, 2) if link.is_crashed(n)] == [1]
