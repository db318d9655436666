"""The link-layer contract of Section 3.1, checked on both runtimes.

Both runtimes build the same :class:`~repro.net.linklayer.LinkLayer`
over a :class:`~repro.net.topology.DynamicTopology`, and nodes send
through the same :class:`~repro.runtime.node.NodeHarness`; only the
channel bound under the link layer differs.  ``sim`` binds a
:class:`~repro.net.channel.ChannelLayer` on a
:class:`~repro.sim.engine.Simulator`; ``live`` binds the live channel
(:class:`~repro.live.linklayer.LiveLinkLayer`) on a
:class:`~repro.live.runtime.WallClockRuntime` over an
:class:`~repro.live.bus.InProcessBus`.  Each test is one clause of the
contract and runs on both.

The network is a star around node 2: links (0, 2), (1, 2) and (2, 3);
every other pair is out of range.
"""

import asyncio
from dataclasses import dataclass

import pytest

from repro.errors import TopologyError
from repro.live.bus import InProcessBus
from repro.live.linklayer import LiveLinkLayer
from repro.live.recorder import LiveRecorder
from repro.live.runtime import WallClockRuntime
from repro.net.channel import ChannelLayer
from repro.net.geometry import Point
from repro.net.linklayer import LinkLayer
from repro.net.messages import Message
from repro.net.topology import DynamicTopology
from repro.runtime.node import NodeHarness
from repro.sim.clock import TimeBounds
from repro.sim.engine import Simulator
from repro.sim.rng import RandomSource

STAR = [Point(-1.0, 0.0), Point(0.0, 1.0), Point(0.0, 0.0), Point(1.0, 0.0)]
RADIO = 1.2


@dataclass(frozen=True)
class Probe(Message):
    payload: str = ""


class LoggingHandler:
    """Appends every callback to the log all nodes share."""

    def __init__(self, node_id, log):
        self.node_id = node_id
        self.log = log

    def on_message(self, src, message):
        self.log.append((self.node_id, "msg", src))

    def on_link_up(self, peer, moving):
        self.log.append((self.node_id, "up", peer, moving))

    def on_link_down(self, peer):
        self.log.append((self.node_id, "down", peer))


class Net:
    """One link layer, its channel, a logging handler per node and a
    sending harness per node (registered nowhere: the handlers log
    what arrives)."""

    def __init__(self, runtime_kind):
        self.kind = runtime_kind
        self.topology = DynamicTopology(radio_range=RADIO)
        self.topology.add_nodes(enumerate(STAR))
        self.log = []
        if runtime_kind == "sim":
            self.sim = Simulator()
            self.link = LinkLayer(self.topology)
            # A fixed delay: arrivals tie and run in send order.
            self.channel = ChannelLayer(
                self.sim, self.topology, TimeBounds(min_delay_fraction=1.0),
                RandomSource(0).stream("channel"), deliver=self.link.deliver,
            )
            runtime = self.sim
        else:
            self.loop = asyncio.new_event_loop()
            runtime = WallClockRuntime(self.loop, 1.0, LiveRecorder())
            bus = InProcessBus(
                self.loop, lambda *args: self.channel.dispatch(*args)
            )
            self.transmitted = 0

            def transmit(*args):
                self.transmitted += 1
                bus.send(*args)

            self.link = LinkLayer(self.topology)
            self.channel = LiveLinkLayer(
                runtime, runtime.recorder, transmit, self.topology,
                self.link.deliver,
            )
            runtime.start()
        self.link.bind_channel(self.channel)
        self.nodes = {}
        #: What the harnesses report to their shared effect sink.
        self.effects = []
        for node_id in self.topology.nodes():
            self.link.register(node_id, LoggingHandler(node_id, self.log))
            self.nodes[node_id] = NodeHarness(
                node_id, runtime, self.link, TimeBounds(),
                lambda *fx: self.effects.append(fx), eat_rng=None,
            )

    def crash(self, node_id):
        """Crash a node as the crash injector does: link layer, then
        harness, which reports the crash to its sink."""
        self.link.crash(node_id)
        self.nodes[node_id].crash()
        assert self.effects[-1][1:] == ("crashed", node_id)

    def sent(self):
        """Messages the channel accepted for transmission."""
        if self.kind == "sim":
            return self.channel.stats.sent
        return self.transmitted

    def settle(self):
        """Deliver (or drop) every message in flight."""
        if self.kind == "sim":
            self.sim.run()
        else:
            self.loop.call_soon(self.loop.stop)
            self.loop.run_forever()

    def link_state(self, a, b):
        """The channel's per-link state: each direction's pipe (identity
        and live flag) in the simulator, the link's incarnation live."""
        if self.kind == "sim":
            pipes = self.channel._pipes
            return [
                None if pipe is None else (id(pipe), pipe[1])
                for pipe in (pipes.get((a, b)), pipes.get((b, a)))
            ]
        return self.channel._incarnation.get((min(a, b), max(a, b)), 0)

    def close(self):
        if self.kind == "live":
            self.loop.close()


@pytest.fixture(params=["sim", "live"])
def net(request):
    built = Net(request.param)
    yield built
    built.close()


def test_crashed_harness_sends_nothing(net):
    net.crash(2)
    net.nodes[2].send(3, Probe("x"))
    net.nodes[2].broadcast(Probe("y"))
    net.settle()
    assert net.log == []
    assert net.sent() == 0


def test_send_over_a_non_link_raises(net):
    with pytest.raises(TopologyError):
        net.nodes[0].send(1, Probe("x"))
    assert net.sent() == 0


def test_broadcast_is_ascending(net):
    net.nodes[2].broadcast(Probe("hello"))
    net.settle()
    assert net.log == [(0, "msg", 2), (1, "msg", 2), (3, "msg", 2)]


@pytest.mark.parametrize(
    "churn", [("down",), ("down", "up")], ids=["down", "down-up"]
)
def test_in_flight_message_is_dropped_by_churn(net, churn):
    net.nodes[2].send(3, Probe("stale"))
    for op in churn:
        net.link.apply_link_event(op, 2, 3, -1)
    del net.log[:]
    net.settle()
    assert net.log == []
    if churn[-1] == "up":
        # The re-formed link carries what is sent on it.
        net.nodes[2].send(3, Probe("fresh"))
        net.settle()
        assert net.log == [(3, "msg", 2)]


def test_delivery_to_a_crashed_node_is_absorbed_and_counted(net):
    net.nodes[2].send(3, Probe("x"))
    net.crash(3)
    net.settle()
    assert net.log == []
    assert net.link.messages_to_crashed == 1


@pytest.mark.parametrize(
    "mover, expected",
    [
        (3, [(1, "up", 3, False), (3, "up", 1, True)]),
        (1, [(3, "up", 1, False), (1, "up", 3, True)]),
        # No mover: the lower id plays static.
        (-1, [(1, "up", 3, False), (3, "up", 1, True)]),
    ],
)
def test_up_indications_go_static_first(net, mover, expected):
    net.link.apply_link_event("up", 3, 1, mover)
    assert net.log == expected
    assert net.topology.has_link(1, 3)
    assert not any(net.link.is_moving(n) for n in net.topology.nodes())


def test_down_indications_reach_both_endpoints_in_canonical_order(net):
    net.link.apply_link_event("down", 3, 2, -1)
    assert net.log == [(2, "down", 3), (3, "down", 2)]
    assert not net.topology.has_link(2, 3)


def test_crashed_endpoints_get_nothing(net):
    net.crash(2)
    net.link.apply_link_event("down", 3, 2, -1)
    net.link.apply_link_event("up", 3, 2, -1)
    assert net.log == [(3, "down", 2), (3, "up", 2, True)]


@pytest.mark.parametrize("op, a, b", [("up", 2, 3), ("down", 0, 1)])
def test_link_event_for_a_link_already_in_that_state_changes_nothing(
    net, op, a, b
):
    if op == "up":
        net.nodes[a].send(b, Probe("in flight"))
    before = net.link_state(a, b)
    net.link.apply_link_event(op, a, b, a)
    assert net.log == []
    assert net.link_state(a, b) == before
    assert net.topology.has_link(a, b) == (op == "up")
