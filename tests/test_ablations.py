"""Tests for the ablated variants (they must stay safe and live)."""

import pytest

from repro.core.ablations import (
    Algorithm1NoDoorways,
    Algorithm1NoReturnPath,
    Algorithm2NoNotify,
)
from repro.core.coloring.greedy import GreedyColoring
from repro.core.messages import Notification
from repro.core.states import NodeState
from repro.errors import ConfigurationError
from repro.mobility import ScriptedMobility, ScriptedMove
from repro.net.geometry import Point, line_positions
from repro.runtime.simulation import ScenarioConfig, Simulation

from helpers import FakeNode, assert_fork_uniqueness


def test_nonotify_skips_notification():
    node = FakeNode(1, (0, 2))
    alg = Algorithm2NoNotify(node)
    for peer in (0, 2):
        alg.bootstrap_peer(peer)
    node.set_state(NodeState.HUNGRY)
    alg.on_hungry()
    assert all(not isinstance(m, Notification) for m in node.broadcasts)


def test_noreturn_does_not_exit_sdf():
    colors = {0: 0, 1: 1, 2: 2}
    node = FakeNode(1, (0, 2))
    alg = Algorithm1NoReturnPath(node, GreedyColoring(), initial_colors=colors)
    for peer in (0, 2):
        alg.bootstrap_peer(peer)
    node.set_state(NodeState.HUNGRY)
    alg.on_hungry()
    # Low neighbor 0 departs holding the shared fork: full Algorithm 1
    # would take the return path; this variant stays put.
    node.set_neighbors((2,))
    alg.on_link_down(0)
    assert alg.return_paths_taken == 0
    from repro.core.doorway import FORK_SYNC

    assert alg.doorways.is_behind(FORK_SYNC)


def test_nodoorway_requires_full_coloring():
    node = FakeNode(1, (0,))
    with pytest.raises(ConfigurationError):
        Algorithm1NoDoorways(node, initial_colors={0: 0})  # missing own color


@pytest.mark.parametrize(
    "algorithm", ["alg2-nonotify", "alg1-noreturn", "alg1-nodoorway"]
)
def test_ablations_safe_and_live_static(algorithm):
    config = ScenarioConfig(
        positions=line_positions(7, spacing=1.0),
        algorithm=algorithm,
        seed=9,
        think_range=(0.5, 2.0),
    )
    sim = Simulation(config)
    result = sim.run(until=250.0)  # strict safety enforced
    assert result.starved == []
    for node in range(7):
        assert result.metrics.counters[node].cs_entries >= 3
    assert_fork_uniqueness(sim)


def test_noreturn_survives_the_fig6_movement():
    """Without the return path the Figure 6 recovery relies on the
    link-destroys-fork rule; the node must still make progress."""
    positions = line_positions(4, spacing=1.0)
    config = ScenarioConfig(
        positions=positions,
        algorithm="alg1-noreturn",
        seed=1,
        initial_colors={0: 2, 1: 1, 2: 0, 3: 3},
        scripted_hunger={
            3: [1.0],
            0: [t * 4.0 + 30.0 for t in range(60)],
            1: [t * 4.0 + 30.0 for t in range(60)],
            2: [t * 4.0 + 30.0 for t in range(60)],
        },
        crashes=[(20.0, 3)],
        mobility_factory=lambda i: (
            ScriptedMobility([ScriptedMove(150.0, Point(2.0, 10.0))])
            if i == 2
            else None
        ),
        trace=True,
    )
    sim = Simulation(config)
    sim.run(until=300.0)
    p2_after = [
        time for time, tag, node in sim.effects
        if tag == "enter" and node == 1 and time > 150.0
    ]
    assert p2_after, "p2 must recover once p3 departs"
