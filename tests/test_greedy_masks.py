"""The greedy flood's edge-index bitmasks agree with the edge-tuple sets.

:class:`repro.core.coloring.greedy.GreedySession` keeps ``G`` as a
bitmask over one process-wide edge index.  ``tests/oracles/greedy_sets.py``
keeps the set-of-tuples session it replaced.  Three properties:

* differential — a :class:`SetGreedySession` runs beside every real
  session and is fed the same inputs, decoded.  After every round the
  real session's action (next round message, or final messages and
  colour) equals the oracle's, with masks decoded to edge sets.  This
  runs on the random-interleaving flood of ``tests/test_coloring.py``
  and on the scenario families of :mod:`repro.explore.scenarios` that
  recolour, under each Algorithm 1 variant that colours greedily
  (three seeds in tier-1, seeds 3-29 under ``pytest -m fuzz``);
* cross-process — bit positions are private to a process, so an
  exchange pickles its decoded edges: a live-codec frame decodes to the
  same edges in a process whose index holds them in another order;
* index guard — after a 196-node mobile run the index holds exactly
  the edges that entered a greedy session, and a re-run with the index
  pre-populated in reverse order gives a byte-identical report.
"""

import json
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.coloring import greedy
from repro.core.coloring.greedy import (
    GreedySession,
    decode_edges,
    encode_edges,
)
from repro.core.coloring.session import ColoringSession
from repro.core.messages import GraphExchange
from repro.explore import runner
from repro.explore.scenarios import build_scenario
from repro.explore.schedule import RandomStrategy
from repro.live.codec import encode_frame
from repro.mobility import RandomWaypoint
from repro.net.geometry import Point, line_positions
from repro.net.topology import link_key
from repro.runtime.simulation import ScenarioConfig, Simulation

from oracles.greedy_sets import SetGreedySession
from test_coloring import _flood

ALGORITHMS = ["alg1-greedy", "alg1-noreturn", "alg1-selforg"]
# fig6 is left out: it starts from a legal colouring and its one mover
# ends isolated, so no greedy session ever runs in it.
FAMILIES = [
    "static-line", "asym-line", "static-ring", "crash-line",
    "mobility-waypoint",
]


def _decoded(mask):
    return sorted(decode_edges(mask))


# ----------------------------------------------------------------------
# Differential: every round against the set-of-tuples oracle
# ----------------------------------------------------------------------


class _Differential:
    """Shadows every :class:`GreedySession` with a :class:`SetGreedySession`.

    Actions are logged as tuples with edge sets sorted: ``("round",
    iteration, edges, finished)`` for a round message, ``("send", peer,
    iteration, edges, True)`` for a final message and ``("finish",
    colour, graph)``.  A round's actions are compared before any round
    the real session completes from its backlog inside them.
    """

    def __init__(self, monkeypatch):
        self.rounds = 0
        self._shadows = {}
        self._logs = {}
        start = GreedySession._start
        complete = GreedySession._complete_round
        diff = self

        def checked_start(session):
            log = diff._logs[session] = []
            send = session._send

            def logged_send(peer, message):
                if message.finished:
                    log.append(("send", peer, message.iteration,
                                _decoded(message.edges), True))
                send(peer, message)

            session._send = logged_send
            shadow = diff._shadows[session] = diff._shadow(session)
            diff._check(session, shadow._start, lambda: start(session))

        def checked_complete(session, inputs):
            shadow = diff._shadows[session]
            shadow.peers = set(session.peers)
            shadow.rounds_executed = session.rounds_executed
            decoded = [
                (src, GraphExchange(msg.iteration,
                                    frozenset(decode_edges(msg.edges)),
                                    msg.finished))
                for src, msg in inputs
            ]
            diff._check(session, lambda: shadow._complete_round(decoded),
                        lambda: complete(session, inputs))
            diff.rounds += 1

        def logged_send_round(session, message):
            # The round message is the session's graph itself.
            assert message.edges is session.graph
            diff._logs[session].append(("round", message.iteration,
                                        _decoded(message.edges),
                                        message.finished))
            ColoringSession._send_round(session, message)

        def logged_finish(session, value):
            diff._logs[session].append(
                ("finish", value, _decoded(session.graph))
            )
            ColoringSession._finish(session, value)

        monkeypatch.setattr(GreedySession, "_start", checked_start)
        monkeypatch.setattr(GreedySession, "_complete_round",
                            checked_complete)
        monkeypatch.setattr(GreedySession, "_send_round", logged_send_round)
        monkeypatch.setattr(GreedySession, "_finish", logged_finish)

    @staticmethod
    def _shadow(session):
        out = []

        def send(peer, message):
            out.append(("send", peer, message.iteration,
                        sorted(message.edges), True))

        shadow = SetGreedySession(session.node_id, session.peers, send,
                                  lambda value: None)
        shadow.out = out
        shadow._send_round = lambda message: out.append(
            ("round", message.iteration, sorted(message.edges),
             message.finished)
        )
        shadow._finish = lambda value: out.append(
            ("finish", value, sorted(shadow.graph))
        )
        return shadow

    def _check(self, session, run_shadow, run_real):
        shadow = self._shadows[session]
        del shadow.out[:]
        run_shadow()
        expected = list(shadow.out)
        log = self._logs[session]
        mark = len(log)
        run_real()
        actual = log[mark:mark + len(expected)]
        assert actual == expected, (
            f"node {session.node_id} round {session.rounds_executed}"
        )


@settings(max_examples=60, deadline=None)
@given(graph_seed=st.integers(0, 10 ** 6), order_seed=st.integers(0, 10 ** 6))
def test_flood_rounds_match_set_oracle(graph_seed, order_seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        diff = _Differential(monkeypatch)
        wire, edges = _flood(graph_seed, order_seed)
    assert diff.rounds > 0
    assert set(wire.finished) == set(wire.sessions)
    for session in wire.sessions.values():
        assert _decoded(session.graph) == sorted(edges)


def _cases(seeds):
    return [
        (algorithm, family, seed)
        for algorithm in ALGORITHMS
        for family in FAMILIES
        for seed in seeds
    ]


def _assert_differential(monkeypatch, algorithm, family, seed):
    diff = _Differential(monkeypatch)
    entry = build_scenario(family, algorithm, seed)
    runner.run_controlled(entry["scenario"], entry["until"],
                          RandomStrategy(seed=seed))
    assert diff.rounds > 0


@pytest.mark.parametrize("algorithm,family,seed", _cases(range(3)))
def test_scenario_rounds_match_set_oracle(monkeypatch, algorithm, family,
                                          seed):
    _assert_differential(monkeypatch, algorithm, family, seed)


@pytest.mark.fuzz
@pytest.mark.parametrize("algorithm,family,seed", _cases(range(3, 30)))
def test_fuzz_scenario_rounds_match_set_oracle(monkeypatch, algorithm,
                                               family, seed):
    _assert_differential(monkeypatch, algorithm, family, seed)


# ----------------------------------------------------------------------
# Cross-process: masks never cross a process boundary raw
# ----------------------------------------------------------------------


@pytest.fixture
def fresh_index(monkeypatch):
    """An empty edge index for one test; forked workers inherit it."""
    monkeypatch.setattr(greedy, "_EDGES", [])
    monkeypatch.setattr(greedy, "_BIT", {})
    greedy._mask_colors.cache_clear()
    yield
    greedy._mask_colors.cache_clear()


_RECEIVER = """
import json, sys
from repro.core.coloring.greedy import decode_edges, encode_edges
from repro.live.codec import FrameDecoder

encode_edges(tuple(edge) for edge in reversed(json.loads(sys.argv[1])))
(payload,) = FrameDecoder().feed(sys.stdin.buffer.read())
(message,) = payload["p"]
print(json.dumps([message.iteration, message.finished,
                  sorted(decode_edges(message.edges))]))
"""


def test_codec_frame_decodes_through_the_receivers_index():
    # The receiver indexes all six edges in reverse before decoding, so
    # its bit numbering differs from this process's.
    indexed = [(10_000 + i, 10_001 + i) for i in range(6)]
    sent = indexed[:3]
    message = GraphExchange(4, encode_edges(sent), True)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    received = subprocess.run(
        [sys.executable, "-c", _RECEIVER, json.dumps(indexed)],
        input=encode_frame({"y": "msg", "p": [message]}),
        capture_output=True, env=env, check=True,
    )
    iteration, finished, edges = json.loads(received.stdout)
    assert (iteration, finished) == (4, True)
    assert [tuple(edge) for edge in edges] == sorted(sent)


# ----------------------------------------------------------------------
# Index guard
# ----------------------------------------------------------------------


def _waypoint196():
    """14 x 14 stratified unit-disk nodes (density 9), every fourth a
    random-waypoint mover: the shape of the ledger's waypoint run."""
    side, radio = 14, 3.0
    cell = radio * math.sqrt(math.pi / 9.0)
    width = side * cell
    rng = random.Random(1)
    positions = [
        Point((i % side + rng.random()) * cell,
              (i // side + rng.random()) * cell)
        for i in range(side * side)
    ]

    def factory(node_id):
        if node_id % 4:
            return None
        return RandomWaypoint(width, width, (0.5, 1.5), (1.0, 5.0))

    return ScenarioConfig(
        positions=positions, radio_range=radio, algorithm="alg1-greedy",
        seed=1, mobility_factory=factory, delta_override=40,
    )


def test_index_holds_exactly_the_session_edges(fresh_index, monkeypatch):
    entered = set()
    widest = [0]
    complete = GreedySession._complete_round

    def recording(session, inputs):
        entered.update(link_key(session.node_id, p) for p in session.peers)
        complete(session, inputs)
        widest[0] = max(widest[0], session.graph.bit_length())

    monkeypatch.setattr(GreedySession, "_complete_round", recording)
    first = Simulation(_waypoint196()).run(until=120.0).report().to_json()
    order = list(greedy._EDGES)
    assert len(order) == len(greedy._BIT) == len(entered)
    assert set(order) == entered
    assert 0 < widest[0] <= len(order)

    monkeypatch.setattr(greedy, "_EDGES", [])
    monkeypatch.setattr(greedy, "_BIT", {})
    greedy._mask_colors.cache_clear()
    encode_edges(reversed(order))
    assert greedy._EDGES == order[::-1]
    second = Simulation(_waypoint196()).run(until=120.0).report().to_json()
    assert second == first
