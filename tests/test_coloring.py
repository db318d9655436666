"""Tests for the coloring procedures (Algorithms 4 and 5)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coloring.greedy import GreedyColoring, greedy_color_graph
from repro.core.coloring.linial import LinialColoring
from repro.core.messages import GraphExchange, RecolorNack, TempColor
from repro.errors import ConfigurationError
from repro.net.topology import link_key


# ----------------------------------------------------------------------
# greedy_color_graph (the local deterministic coloring of Line 72)
# ----------------------------------------------------------------------


def colors_of(edges, nodes):
    return {n: greedy_color_graph(frozenset(edges), n) for n in nodes}


def test_greedy_color_isolated_node():
    assert greedy_color_graph(frozenset(), 5) == 0


def test_greedy_color_legal_on_path():
    edges = {(0, 1), (1, 2), (2, 3)}
    colors = colors_of(edges, [0, 1, 2, 3])
    for a, b in edges:
        assert colors[a] != colors[b]


def test_greedy_color_uses_few_colors_on_path():
    edges = {(i, i + 1) for i in range(10)}
    colors = colors_of(edges, range(11))
    assert max(colors.values()) <= 1  # a path is 2-colorable greedily


def test_greedy_color_deterministic_across_nodes():
    edges = frozenset({(0, 1), (1, 2), (0, 2), (2, 3)})
    # Every node computes the same global coloring.
    all_views = [
        {n: greedy_color_graph(edges, n) for n in range(4)}
        for _ in range(3)
    ]
    assert all_views[0] == all_views[1] == all_views[2]


@settings(max_examples=50, deadline=None)
@given(
    edge_list=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=30,
    )
)
def test_greedy_color_always_legal(edge_list):
    edges = frozenset(link_key(a, b) for a, b in edge_list)
    nodes = {n for e in edges for n in e}
    colors = {n: greedy_color_graph(edges, n) for n in nodes}
    for a, b in edges:
        assert colors[a] != colors[b]


# ----------------------------------------------------------------------
# Session-level behavior with hand-driven message exchange
# ----------------------------------------------------------------------


class Wire:
    """Connects two or more sessions with instant in-order delivery."""

    def __init__(self):
        self.sessions = {}
        self.finished = {}
        self.queue = []
        self.sent = []  # every (src, dst, msg) a session sent, in order

    def add(self, node_id, procedure, peers):
        def send(dst, msg, src=node_id):
            self.sent.append((src, dst, msg))
            self.queue.append((src, dst, msg))

        session = procedure.create_session(
            node_id,
            set(peers),
            send,
            lambda value, src=node_id: self.finished.__setitem__(src, value),
        )
        self.sessions[node_id] = session
        return session

    def _pop(self, rng):
        """Next message: global FIFO, or with ``rng`` a random directed
        link's oldest message (links stay FIFO, their interleaving is
        arbitrary — the paper's channel model)."""
        if rng is None:
            return self.queue.pop(0)
        heads = {}
        for index, (src, dst, _) in enumerate(self.queue):
            heads.setdefault((src, dst), index)
        return self.queue.pop(rng.choice(list(heads.values())))

    def deliver_all(self, drop=(), rng=None):
        while self.queue:
            src, dst, msg = self._pop(rng)
            if (src, dst) in drop:
                continue
            target = self.sessions.get(dst)
            if isinstance(msg, RecolorNack):
                # NACKs terminate here regardless of the target's state
                # (mirroring Algorithm 1, where a NACK received by a
                # non-participant is silently dropped) — answering a
                # NACK with a NACK would ping-pong forever between two
                # finished sessions.
                if target is not None:
                    target.remove_peer(src)
                continue
            if target is None or not target.active:
                self.queue.append((dst, src, RecolorNack(0)))
                continue
            target.on_peer_message(src, msg)


def test_greedy_session_solo_finishes_immediately():
    wire = Wire()
    session = wire.add(0, GreedyColoring(), peers=())
    session.begin()
    assert wire.finished[0] == 0


def test_greedy_sessions_two_neighbors_pick_distinct_colors():
    wire = Wire()
    a = wire.add(0, GreedyColoring(), peers=(1,))
    b = wire.add(1, GreedyColoring(), peers=(0,))
    a.begin()
    b.begin()
    wire.deliver_all()
    assert 0 in wire.finished and 1 in wire.finished
    assert wire.finished[0] != wire.finished[1]
    assert a.graph == b.graph == {(0, 1)}


def test_greedy_sessions_triangle_all_distinct():
    wire = Wire()
    sessions = [
        wire.add(i, GreedyColoring(), peers=[j for j in range(3) if j != i])
        for i in range(3)
    ]
    for s in sessions:
        s.begin()
    wire.deliver_all()
    values = [wire.finished[i] for i in range(3)]
    assert len(set(values)) == 3


def test_greedy_session_nack_removes_peer():
    wire = Wire()
    # Node 1 never participates: its messages are NACKed by the wire.
    a = wire.add(0, GreedyColoring(), peers=(1,))
    a.begin()
    wire.deliver_all()
    assert wire.finished[0] == 0  # colored alone
    assert a.peers == set()


def test_greedy_session_peer_loss_mid_round():
    wire = Wire()
    a = wire.add(0, GreedyColoring(), peers=(1, 2))
    b = wire.add(1, GreedyColoring(), peers=(0,))
    a.begin()
    b.begin()
    # Peer 2 vanishes (link down) before answering.
    a.remove_peer(2)
    wire.deliver_all()
    assert 0 in wire.finished and 1 in wire.finished
    assert wire.finished[0] != wire.finished[1]


def _random_connected_graph(rng):
    """A random spanning tree plus a few chords, as canonical edges."""
    n = rng.randint(2, 9)
    edges = {link_key(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(range(n), 2)
        edges.add(link_key(a, b))
    return n, edges


def _flood(graph_seed, order_seed):
    """All nodes of a random connected graph recolor at once."""
    n, edges = _random_connected_graph(random.Random(graph_seed))
    wire = Wire()
    for node in range(n):
        wire.add(node, GreedyColoring(),
                 peers=[b if a == node else a for a, b in edges
                        if node in (a, b)])
    for session in wire.sessions.values():
        session.begin()
    wire.deliver_all(rng=random.Random(order_seed))
    return wire, edges


@settings(max_examples=60, deadline=None)
@given(graph_seed=st.integers(0, 10 ** 6), order_seed=st.integers(0, 10 ** 6))
def test_greedy_flood_lemma_14(graph_seed, order_seed):
    """Lemma 14 under arbitrary per-link interleavings: concurrent
    participants (none lost mid-session) all end with the whole graph
    and therefore with a legal coloring."""
    wire, edges = _flood(graph_seed, order_seed)
    assert set(wire.finished) == set(wire.sessions)
    for a, b in edges:
        assert wire.finished[a] != wire.finished[b]
        assert wire.sessions[a].graph == wire.sessions[b].graph == edges
    # One immutable edge set per sender per round, shared by every peer
    # (and by the finished=True message when the last round added
    # nothing), never one copy per peer.
    by_sender = {}
    for src, _, msg in wire.sent:
        if isinstance(msg, GraphExchange):
            by_sender.setdefault(src, []).append(msg.edges)
    for sets in by_sender.values():
        for earlier, later in zip(sets, sets[1:]):
            assert later is earlier or later != earlier


@pytest.mark.parametrize(
    "graph_seed, order_seed, messages, rounds",
    [(1, 0, 33, 13), (3, 0, 59, 17), (3, 1, 60, 17), (7, 0, 68, 29),
     (7, 2, 69, 29), (8, 1, 50, 17)],
)
def test_greedy_flood_traffic_pinned(graph_seed, order_seed, messages, rounds):
    """Recorded before the one-edge-set-per-round rewrite: the flood
    must keep sending exactly the messages Algorithm 4 asks for."""
    wire, _ = _flood(graph_seed, order_seed)
    assert len(wire.sent) == messages
    assert sum(s.rounds_executed for s in wire.sessions.values()) == rounds


def test_linial_requires_valid_parameters():
    with pytest.raises(ConfigurationError):
        LinialColoring(id_space=0, delta=2)
    with pytest.raises(ConfigurationError):
        LinialColoring(id_space=10, delta=0)
    proc = LinialColoring(id_space=4, delta=2)
    with pytest.raises(ConfigurationError):
        proc.create_session(99, set(), lambda d, m: None, lambda v: None)


def test_linial_solo_returns_zero():
    wire = Wire()
    proc = LinialColoring(id_space=10, delta=3)
    s = wire.add(0, proc, peers=())
    s.begin()
    assert wire.finished[0] == 0


def test_linial_empty_schedule_returns_id():
    # Tiny id space: no reduction round shrinks it.
    proc = LinialColoring(id_space=8, delta=3)
    assert proc.rounds == 0
    wire = Wire()
    s = wire.add(5, proc, peers=(1,))
    t = wire.add(1, proc, peers=(5,))
    s.begin()
    t.begin()
    wire.deliver_all()
    assert wire.finished[5] == 5
    assert wire.finished[1] == 1


def test_linial_neighbors_get_distinct_small_colors():
    proc = LinialColoring(id_space=10 ** 6, delta=4)
    assert proc.rounds >= 1
    wire = Wire()
    ids = [17, 40123, 999999]
    sessions = [
        wire.add(i, proc, peers=[j for j in ids if j != i]) for i in ids
    ]
    for s in sessions:
        s.begin()
    wire.deliver_all()
    values = [wire.finished[i] for i in ids]
    assert len(set(values)) == 3
    bound = proc.max_color()
    assert all(0 <= v <= bound for v in values)


@settings(max_examples=25, deadline=None)
@given(
    ids=st.lists(
        st.integers(min_value=0, max_value=9999), min_size=2, max_size=5,
        unique=True,
    )
)
def test_linial_clique_always_legal(ids):
    """Property: a clique of participants always ends rainbow-colored."""
    proc = LinialColoring(id_space=10000, delta=6)
    wire = Wire()
    sessions = [
        wire.add(i, proc, peers=[j for j in ids if j != i]) for i in ids
    ]
    for s in sessions:
        s.begin()
    wire.deliver_all()
    values = [wire.finished[i] for i in ids]
    assert len(set(values)) == len(ids)


def test_linial_rounds_counted():
    proc = LinialColoring(id_space=10 ** 6, delta=4)
    wire = Wire()
    a = wire.add(3, proc, peers=(4,))
    b = wire.add(4, proc, peers=(3,))
    a.begin()
    b.begin()
    wire.deliver_all()
    assert a.rounds_executed == proc.rounds
    assert b.rounds_executed == proc.rounds


def test_session_abort_goes_inert():
    proc = GreedyColoring()
    wire = Wire()
    a = wire.add(0, proc, peers=(1,))
    a.begin()
    a.abort()
    assert not a.active
    # Late messages are ignored without error.
    a.on_peer_message(1, GraphExchange(1, frozenset(), False))
    assert 0 not in wire.finished
