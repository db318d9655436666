"""Maintained fork predicates agree with the per-neighbor scans.

:class:`repro.core.fork_collection.ForkProtocol` evaluates the paper's
``all-forks`` / ``all-low-forks`` macros and the two request lists as
set algebra over maintained state — the fork table's ``held``, the
host's ``low`` set (Algorithm 2) and the node's live neighbor set.
``tests/oracles/fork_scan.py`` keeps the O(degree) scans over ``at[]``
they replaced.  Two properties:

* differential — after every engine event, on every scenario family
  of :mod:`repro.explore.scenarios` under each algorithm with a fork
  engine, every node's maintained predicates and request list equal
  the scans, and the maintained sets equal the dicts they index;
* window — inside one link event the neighbor set and ``at[]`` keys
  disagree (a peer already removed from ``N`` but not yet indicated
  down, or already in ``N`` but not yet indicated up).  The predicates
  judge ``N``, as the scans do, never the ``at[]`` keys.

Tier-1 runs three scenario seeds per pair; ``pytest -m fuzz`` runs
seeds 3-29.
"""

import pytest

from repro.core.algorithm2 import Algorithm2
from repro.core.messages import ForkRequest, Switch
from repro.core.states import NodeState
from repro.explore import runner
from repro.explore.scenarios import build_scenario
from repro.explore.schedule import RandomStrategy

from helpers import FakeNode
from oracles import fork_scan

ALGORITHMS = [
    "alg2", "alg1-greedy", "alg1-linial", "alg2-nonotify", "alg1-noreturn",
]
FAMILIES = [
    "static-line", "asym-line", "static-ring", "crash-line",
    "mobility-waypoint", "fig6",
]


def _cases(seeds):
    # fig6 carries an Algorithm 1 coloring, as in scenario_pool.
    return [
        (algorithm, family, seed)
        for algorithm in ALGORITHMS
        for family in FAMILIES
        if family != "fig6" or algorithm.startswith("alg1")
        for seed in seeds
    ]


def _scan_is_low(host):
    """The host's priority test, read from its own priority state."""
    higher = getattr(host, "higher", None)
    if higher is not None:
        return lambda j: higher.get(j, False)
    return host.is_low


def _assert_node_agrees(node_id, harness):
    host = harness.algorithm
    proto, table = host.fork_proto, host.forks
    nbrs = harness.neighbors()
    where = f"node {node_id}"
    assert proto._nbrs == nbrs, where
    assert table.held == {j for j, v in table._at.items() if v}, where
    if isinstance(host, Algorithm2):
        assert host.low == {j for j, v in host.higher.items() if v}, where
    is_low = _scan_is_low(host)
    assert proto.all_forks() == fork_scan.all_forks(table, nbrs), where
    assert proto.all_low_forks() == fork_scan.all_low_forks(
        table, nbrs, is_low
    ), where
    # The low list while a low fork is missing, else the high list.
    assert proto.missing() == (
        fork_scan.missing(table, nbrs, is_low)
        or fork_scan.missing(table, nbrs, lambda j: not is_low(j))
    ), where


def _assert_differential(algorithm, family, seed):
    entry = build_scenario(family, algorithm, seed)
    checked = []

    def attach(simulation):
        def on_event(engine):
            for node_id, harness in simulation.harnesses.items():
                _assert_node_agrees(node_id, harness)
            checked.append(engine.executed_events)

        simulation.sim.add_listener(on_event)

    runner.run_controlled(
        entry["scenario"], entry["until"], RandomStrategy(seed=seed),
        on_simulation=attach,
    )
    assert checked


@pytest.mark.parametrize("algorithm,family,seed", _cases(range(3)))
def test_maintained_predicates_match_scans_after_every_event(
    algorithm, family, seed
):
    _assert_differential(algorithm, family, seed)


@pytest.mark.fuzz
@pytest.mark.parametrize("algorithm,family,seed", _cases(range(3, 30)))
def test_fuzz_maintained_predicates_match_scans(algorithm, family, seed):
    _assert_differential(algorithm, family, seed)


def test_neighbor_view_outlives_moves():
    """The engine resolves ``N`` once; that set must stay the node's.

    Movers relink all run long.  After every event each node's engine
    still reads its topology's own adjacency set, not a copy that the
    differential above would find equal only while nothing moves.
    """
    from repro.mobility import RandomWaypoint
    from repro.net.geometry import line_positions
    from repro.runtime.simulation import ScenarioConfig, Simulation

    def mobility(node_id):
        if node_id < 3:
            return RandomWaypoint(
                8.0, 2.0, speed_range=(0.4, 1.2), pause_range=(1.0, 4.0)
            )
        return None

    simulation = Simulation(ScenarioConfig(
        positions=line_positions(8, spacing=1.0), radio_range=1.1,
        algorithm="alg2", seed=3, mobility_factory=mobility,
        delta_override=7,
    ))
    adjacency = simulation.topology._adjacency
    checked = []

    def on_event(engine):
        for node_id, harness in simulation.harnesses.items():
            assert harness.algorithm.fork_proto._nbrs is adjacency[node_id]
        checked.append(engine.executed_events)

    simulation.sim.add_listener(on_event)
    simulation.run(until=40.0)
    assert simulation.mobility.stats()["crossing_events"] > 0
    assert len(checked) > 100


# ----------------------------------------------------------------------
# The multi-link-diff windows
# ----------------------------------------------------------------------


def _hungry_alg2(node_id, peers):
    node = FakeNode(node_id, peers)
    algorithm = Algorithm2(node)
    algorithm.bootstrap_peers(sorted(peers))
    node.set_state(NodeState.HUNGRY)
    return node, algorithm


def test_two_links_lost_in_one_diff_first_indication_ignores_second():
    """Node 5 holds only the fork of 9 and loses 1 and 2 in one diff.

    The topology drops both links before either indication; inside
    the first ``on_link_down`` the other departed peer still has an
    ``at[]`` entry (a fork we lack) but is out of ``N``, so the node
    already holds all forks and eats there.
    """
    node, alg = _hungry_alg2(5, {1, 2, 9})
    assert alg.forks.held == {9}
    node.set_neighbors({9})
    alg.on_link_down(1)
    assert node.eat_calls == 1
    assert 2 in alg.forks._at and not alg.forks.holds(2)
    alg.on_link_down(2)
    assert node.eat_calls == 1 and alg.forks._at.keys() == {9}


def test_peer_in_n_before_its_link_up_is_a_missing_high_fork():
    """Node 0 holds the forks of 5 and 6; 9 has just joined ``N``.

    Until ``on_link_up(9)`` runs, 9 has no ``at[]`` entry: the node
    neither holds its fork nor counts it low.  A re-check in that
    window must not eat and asks 9 (a high neighbor) for its fork.
    """
    node, alg = _hungry_alg2(0, {5, 6})
    assert alg.fork_proto.all_forks()
    node.set_neighbors({5, 6, 9})
    assert not alg.fork_proto.all_forks()
    assert alg.fork_proto.all_low_forks()
    assert alg.fork_proto.missing() == [9]
    alg.on_message(6, Switch())  # 6 steps below us: a re-check
    assert node.eat_calls == 0
    assert [d for d, m in node.sent if isinstance(m, ForkRequest)] == [9]
