"""Contract of the message plane (one engine event per message).

Per-directed-link FIFO with strictly increasing arrivals even when
delays collide; drop of whatever is in flight when a link dies, counted
when the message would have arrived; no leak from a dead link
incarnation into its re-formed successor; and — as a regression pin —
the exact delivery log of a randomized churn run per seed.
"""

import hashlib
import random
from dataclasses import dataclass

import pytest

from repro.net.channel import ChannelLayer
from repro.net.geometry import Point
from repro.net.messages import Message
from repro.net.topology import DynamicTopology
from repro.sim.clock import TimeBounds
from repro.sim.engine import Simulator
from repro.sim.rng import RandomSource


@dataclass(frozen=True)
class Tagged(Message):
    """Test message carrying the link epoch it was sent in."""

    payload: int = 0
    epoch: int = 0


HOME = [Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.0)]
AWAY = Point(50.0, 50.0)


def _line(seed=1):
    """A 3-node line 0-1-2 with a delivery log of (t, src, dst, payload)."""
    sim = Simulator()
    topo = DynamicTopology(radio_range=1.5)
    for i, p in enumerate(HOME):
        topo.add_node(i, p)
    log = []
    channel = ChannelLayer(
        sim, topo, TimeBounds(nu=1.0, min_delay_fraction=0.25),
        RandomSource(seed).stream("c"),
        deliver=lambda src, dst, m: log.append((sim.now, src, dst, m.payload)),
    )
    return sim, topo, channel, log


def _move(topo, channel, node, position):
    """Reposition ``node`` and report the destroyed links to the channel."""
    for a, b in topo.set_position(node, position).removed:
        channel.link_down(a, b)


def test_fifo_strictly_increasing_under_colliding_delays():
    """Later sends drawing smaller delays still arrive later, in send
    order, on their link; equal arrivals on different links keep send
    order too (the engine's insertion tie-break)."""
    sim, topo, channel, log = _line()
    delays = iter([0.9, 0.5, 0.5, 0.1, 0.9, 0.9])
    channel.delay_source = lambda src, dst, message: next(delays)
    for payload, (src, dst) in enumerate(
        [(0, 1), (0, 1), (2, 1), (0, 1), (1, 2), (1, 0)]
    ):
        channel.send(src, dst, Tagged(payload))
    sim.run()
    on_01 = [(t, p) for t, src, dst, p in log if (src, dst) == (0, 1)]
    assert [p for _, p in on_01] == [0, 1, 3]
    assert on_01[0][0] == 0.9
    assert on_01[0][0] < on_01[1][0] < on_01[2][0] <= 0.9 + 1e-6
    # 2->1 arrives at 0.5, before everything clamped behind 0->1's 0.9;
    # the two 0.9 arrivals sent last keep their send order.
    assert [p for _, _, _, p in log] == [2, 0, 4, 5, 1, 3]


def test_link_down_drops_in_flight_both_directions():
    sim, topo, channel, log = _line()
    channel.send(0, 1, Tagged(1))
    channel.send(1, 0, Tagged(2))
    channel.send(1, 2, Tagged(3))
    _move(topo, channel, 0, AWAY)
    # The drop is counted when the message would have arrived.
    assert channel.stats.dropped_link_down == 0
    assert sim.pending_events == 3
    sim.run()
    assert [p for _, _, _, p in log] == [3]
    assert channel.stats.snapshot()["dropped_by_kind"] == {"Tagged": 2}
    assert channel.stats.sent == 3 == (
        channel.stats.delivered + channel.stats.dropped_link_down
    )


def test_reformed_link_never_sees_its_previous_incarnation():
    """The re-formed link starts a fresh FIFO: its first message may
    overtake — and must not resurrect — what the dead one still holds."""
    sim, topo, channel, log = _line()
    delays = iter([0.9, 0.9, 0.3])
    channel.delay_source = lambda src, dst, message: next(delays)
    channel.send(0, 1, Tagged(1))
    channel.send(1, 0, Tagged(2))
    _move(topo, channel, 1, AWAY)
    _move(topo, channel, 1, HOME[1])
    assert topo.has_link(0, 1)
    channel.send(0, 1, Tagged(3))
    sim.run()
    assert log == [(0.3, 0, 1, 3)]
    assert channel.stats.dropped_link_down == 2


# ----------------------------------------------------------------------
# Randomized churn
# ----------------------------------------------------------------------


def _run_churn(seed: int):
    """Random sends and link up/down cycles against the 3-node line.

    Returns the delivery log and the channel counters; asserts inside
    the recorder that no delivered message is from a dead link
    incarnation and that each directed link's delivery times strictly
    increase.
    """
    plan_rng = random.Random(seed)
    sim, topo, channel, _ = _line(seed)

    epoch = {}  # undirected link -> generation counter
    log = []
    last_seen = {}  # directed link -> last delivery time

    def link_id(a, b):
        return (a, b) if a < b else (b, a)

    def on_deliver(src, dst, message):
        now = sim.now
        assert message.epoch == epoch.get(link_id(src, dst), 0), (
            f"stale-incarnation delivery {src}->{dst} at t={now}"
        )
        prev = last_seen.get((src, dst))
        assert prev is None or now > prev, (
            f"non-increasing arrival on {src}->{dst}: {prev} -> {now}"
        )
        last_seen[(src, dst)] = now
        log.append((now, src, dst, message.payload))

    channel._deliver = on_deliver
    out = False  # is node 1 currently moved away?

    def toggle():
        nonlocal out
        diff = topo.set_position(1, HOME[1] if out else AWAY)
        out = not out
        for a, b in diff.removed:
            channel.link_down(a, b)
            epoch[link_id(a, b)] = epoch.get(link_id(a, b), 0) + 1

    payload = 0

    def send(src, dst):
        nonlocal payload
        if not topo.has_link(src, dst):
            return
        payload += 1
        channel.send(
            src, dst, Tagged(payload, epoch.get(link_id(src, dst), 0))
        )

    t = 0.0
    for _ in range(300):
        t += plan_rng.uniform(0.05, 0.6)
        if plan_rng.random() < 0.15:
            sim.schedule_at(t, toggle)
        else:
            pair = plan_rng.choice([(0, 1), (1, 0), (1, 2), (2, 1)])
            sim.schedule_at(t, send, *pair)
    sim.run()
    return log, channel.stats


#: seed -> (delivered, dropped, sha256 of the delivery log); recorded
#: from the per-link drain this path replaced, whose log was identical.
CHURN_PINS = {
    11: (94, 30, "616fc744a84b8d7f"),
    42: (141, 27, "ccc8a922e0787e82"),
    99: (72, 25, "034bbe6f90dc91e6"),
    1234: (107, 19, "2f900dab2f7681bd"),
}


@pytest.mark.parametrize("seed", sorted(CHURN_PINS))
def test_churn_delivery_log_pinned(seed):
    log, stats = _run_churn(seed)
    assert stats.sent == stats.delivered + stats.dropped_link_down
    digest = hashlib.sha256(repr(log).encode()).hexdigest()[:16]
    assert (stats.delivered, stats.dropped_link_down, digest) == CHURN_PINS[seed]
