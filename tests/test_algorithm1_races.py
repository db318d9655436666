"""Targeted race tests for Algorithm 1's mobility/doorway interactions."""

import pytest

from repro.core.algorithm1 import Algorithm1
from repro.core.coloring.greedy import GreedyColoring
from repro.core.doorway import FORK_ASYNC, FORK_SYNC
from repro.core.messages import (
    DoorwayCross,
    ForkGrant,
    ForkRequest,
    Hello,
    RecolorNack,
    TempColor,
    UpdateColor,
)
from repro.core.states import NodeState
from repro.mobility import ScriptedMobility, ScriptedMove
from repro.net.geometry import Point, line_positions
from repro.runtime.simulation import ScenarioConfig, Simulation

from helpers import FakeNode


def build(node_id=1, neighbors=(0, 2), colors=None):
    node = FakeNode(node_id, neighbors)
    alg = Algorithm1(node, GreedyColoring(), initial_colors=colors)
    for peer in neighbors:
        alg.bootstrap_peer(peer)
    return node, alg


def test_hello_carrying_behind_status_blocks_newcomer():
    """A mover must respect doorway positions learned from Hello."""
    node, alg = build(colors=None)
    node.set_state(NodeState.HUNGRY)
    # We moved next to node 7 which is behind ADf and SDf.
    node.set_neighbors((0, 2, 7))
    alg.on_link_up(7, moving=True)
    alg.on_message(7, Hello(3, frozenset({FORK_ASYNC, FORK_SYNC})))
    # Pipeline started at the recoloring doorways, but the fork-side
    # view records 7 as behind, so crossing ADf later must wait.
    assert alg.doorways.peer_behind(FORK_ASYNC, 7)
    assert alg.doorways.peer_behind(FORK_SYNC, 7)


def test_non_participant_nacks_round_messages():
    node, alg = build(colors={0: 0, 1: 1, 2: 2})
    alg.on_message(0, TempColor(0, 5))
    nacks = [m for d, m in node.sent if d == 0 and isinstance(m, RecolorNack)]
    assert len(nacks) == 1


def test_stale_nack_after_session_end_is_ignored():
    node, alg = build(colors={0: 0, 1: 1, 2: 2})
    alg.on_message(0, RecolorNack(0))  # no session: must not crash


def test_update_color_triggers_progress_recheck():
    """A neighbor's exit-CS recolor can flip it from low to high."""
    node, alg = build(colors={0: 0, 1: 1, 2: 2})
    node.set_state(NodeState.HUNGRY)
    alg.on_hungry()  # behind SDf; requests the missing low fork from 0
    assert not alg.forks.holds(0)
    first_requests = [d for d, m in node.sent if isinstance(m, ForkRequest)]
    assert first_requests == [0]
    assert alg.is_low(0)
    node.clear()
    # Node 0 exits its CS and takes a color above ours: it flips to a
    # high neighbor.  The outstanding request is still valid (0 grants
    # unconditionally outside SDf), so the recheck must NOT duplicate
    # it — the dedup set keeps message counts honest.
    alg.on_message(0, UpdateColor(5))
    assert not alg.is_low(0)
    assert [d for d, m in node.sent if isinstance(m, ForkRequest)] == []
    # The grant then completes collection and we eat.
    alg.on_message(0, ForkGrant(flag=False))
    assert node.eat_calls == 1


def test_fork_request_while_outside_sdf_granted_unconditionally():
    node, alg = build(colors={0: 0, 1: 1, 2: 2})
    # Thinking, outside all doorways, holding the fork shared with 2.
    assert alg.forks.holds(2)
    alg.on_message(2, ForkRequest())
    grants = [d for d, m in node.sent if isinstance(m, ForkGrant)]
    assert grants == [2]
    # And the grant carries no want-back flag (we are not competing).
    assert [m.flag for d, m in node.sent if isinstance(m, ForkGrant)] == [False]


def test_mover_mid_collection_releases_suspensions():
    node, alg = build(colors={0: 0, 1: 1, 2: 2})
    node.set_state(NodeState.HUNGRY)
    alg.on_hungry()
    # Suspend a request from the high neighbor 2... first take its fork
    # state so a suspension can exist.
    alg.forks.suspended.add(2)
    node.set_neighbors((0, 2, 9))
    node.clear()
    alg.on_link_up(9, moving=True)
    # Line 51: all suspended requests granted on departure.
    grants = [d for d, m in node.sent if isinstance(m, ForkGrant)]
    assert grants == [2]
    assert not alg.doorways.is_behind(FORK_SYNC)


def test_double_moves_accumulate_pending_hellos():
    node, alg = build(colors={0: 0, 1: 1, 2: 2})
    node.set_state(NodeState.HUNGRY)
    node.set_neighbors((0, 2, 7, 8))
    alg.on_link_up(7, moving=True)
    alg.on_link_up(8, moving=True)
    assert alg.pending_hellos == {7, 8}
    alg.on_message(7, Hello(4, frozenset()))
    # Still waiting on 8: the pipeline must not start.
    assert not alg.doorways.is_waiting("ADr") and not alg.doorways.is_behind(
        "ADr"
    )
    alg.on_message(8, Hello(5, frozenset()))
    assert alg.doorways.is_behind("ADr") or alg.doorways.is_waiting("ADr")


def test_pending_hello_peer_departs_before_answering():
    node, alg = build(colors={0: 0, 1: 1, 2: 2})
    node.set_state(NodeState.HUNGRY)
    node.set_neighbors((0, 2, 7))
    alg.on_link_up(7, moving=True)
    assert alg.pending_hellos == {7}
    # 7 vanishes before its Hello arrives: the wait must clear.
    node.set_neighbors((0, 2))
    alg.on_link_down(7)
    assert alg.pending_hellos == set()
    assert alg.doorways.is_behind("ADr") or alg.doorways.is_waiting("ADr")


def test_eating_static_node_unaffected_by_arriving_mover():
    """End-to-end: a mover lands beside an eater; the eater finishes
    its CS undisturbed and the mover integrates afterwards."""
    positions = list(line_positions(2, spacing=1.0)) + [Point(30.0, 0.0)]
    config = ScenarioConfig(
        positions=positions,
        algorithm="alg1-greedy",
        seed=4,
        think_range=(0.2, 0.8),
        mobility_factory=lambda i: (
            ScriptedMobility([ScriptedMove(15.0, Point(0.5, 0.8), speed=10.0)])
            if i == 2
            else None
        ),
    )
    sim = Simulation(config)
    result = sim.run(until=120.0)
    # The mover eventually eats in its new neighborhood.
    post = [s for s in result.metrics.samples if s.node == 2 and s.eating_at > 16]
    assert post
    # And the original pair kept eating after the arrival.
    for node in (0, 1):
        assert any(
            s.node == node and s.eating_at > 20.0
            for s in result.metrics.samples
        )
