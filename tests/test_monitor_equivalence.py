"""Scoped invariant monitors agree with their whole-network oracles.

:mod:`repro.explore.monitors` re-checks only the nodes an event
touched; ``tests/oracles/monitor_scan.py`` keeps the full scans they
replaced.  Two properties, on every scenario family of
:mod:`repro.explore.scenarios` under each clean algorithm and each
ablation:

* lockstep — after every event, every scoped monitor's verdict equals
  its full scan's, details included (:class:`Lockstep` judges both
  sides of each pair on the same post-event state);
* first violation — a plain controlled run, with the full-scan suite
  riding along as a second engine listener that never stops the
  engine, records the same ``(monitor, step, time, details)`` and the
  same check count.

The ``exclusion`` monitor scans nothing: it reports the verdicts of the
simulation's always-on safety checker, which an unmonitored run raises
instead; both modes must name the same time and link.

Tier-1 runs three scenario seeds per pair; ``pytest -m fuzz`` runs
thirty.
"""

import random
from types import SimpleNamespace

import pytest

from oracles.monitor_scan import PriorityScan, ScanSuite, build_scan_monitors
from repro.core.base import LocalMutexAlgorithm
from repro.core.states import NodeState
from repro.errors import SafetyViolation
from repro.explore import monitors as monitors_module
from repro.explore import runner
from repro.explore.monitors import (
    MonitorSuite,
    PriorityMonitor,
    build_monitors,
    default_monitor_specs,
)
from repro.explore.scenarios import build_scenario
from repro.explore.schedule import RandomStrategy
from repro.harness.config_io import config_from_dict
from repro.metrics.safety import SafetyMonitor
from repro.net.geometry import Point
from repro.net.messages import Message
from repro.runtime import registry
from repro.runtime.simulation import ScenarioConfig, Simulation

ALGORITHMS = [
    "alg2", "alg1-greedy", "alg1-linial",
    "alg2-nonotify", "alg1-noreturn", "alg1-nodoorway",
]
ABLATIONS = ["alg2-nonotify", "alg1-noreturn", "alg1-nodoorway"]
FAMILIES = [
    "static-line", "asym-line", "static-ring", "crash-line",
    "mobility-waypoint", "fig6",
]


def _families(algorithm):
    # fig6 carries an Algorithm 1 coloring, as in scenario_pool.
    return [f for f in FAMILIES if f != "fig6" or algorithm.startswith("alg1")]


def _cases(seeds):
    return [
        (algorithm, family, seed)
        for algorithm in ALGORITHMS
        for family in _families(algorithm)
        for seed in seeds
    ]


class Lockstep(MonitorSuite):
    """The scoped suite, each monitor judged beside its full scan.

    Every pair is evaluated after every event (not just up to the
    first firing monitor), and the run stops at the first violation
    exactly where the plain suite stops it.
    """

    def __init__(self, monitors):
        super().__init__(monitors)
        self.scans = build_scan_monitors([m.spec() for m in monitors])
        self.events = 0

    def attach(self, simulation):
        super().attach(simulation)
        for scan in self.scans:
            scan.attach(simulation)

    def _judge(self, engine, final):
        nodes = self._take_dirty()
        first = None
        for monitor, scan in zip(self.monitors, self.scans):
            self.checks += 1
            if final:
                scoped, expected = monitor.final(nodes), scan.final()
            else:
                scoped, expected = monitor.check(nodes), scan.check()
            assert scoped == expected, (
                f"{monitor.name} at step {engine.executed_events} "
                f"t={engine.now}: scoped {scoped} != full scan {expected}"
            )
            if scoped is not None and first is None:
                first = (monitor, scoped)
        if first is not None:
            self._record(*first, engine)
        return first is not None

    def _on_event(self, engine):
        if self.violation is None:
            self.events += 1
            if self._judge(engine, final=False):
                engine.stop()

    def finalize(self):
        if self.violation is None:
            self._judge(self._simulation.sim, final=True)


def _install_lockstep(monkeypatch, module):
    """Make ``module.MonitorSuite`` build Lockstep suites; returns them."""
    suites = []

    def factory(monitors):
        suites.append(Lockstep(monitors))
        return suites[-1]

    monkeypatch.setattr(module, "MonitorSuite", factory)
    return suites


def _assert_lockstep(monkeypatch, algorithm, family, seed):
    suites = _install_lockstep(monkeypatch, runner)
    entry = build_scenario(family, algorithm, seed)
    runner.run_controlled(
        entry["scenario"], entry["until"], RandomStrategy(seed=seed)
    )
    (suite,) = suites
    assert suite.events > 0


@pytest.mark.parametrize("algorithm,family,seed", _cases(range(3)))
def test_scoped_verdicts_match_full_scan_after_every_event(
    monkeypatch, algorithm, family, seed
):
    _assert_lockstep(monkeypatch, algorithm, family, seed)


@pytest.mark.parametrize("algorithm", ABLATIONS)
def test_ablation_first_violation_is_the_full_scans(algorithm):
    fired = 0
    for family in _families(algorithm):
        for seed in range(3):
            entry = build_scenario(family, algorithm, seed)
            scan = ScanSuite(
                default_monitor_specs(entry["scenario"], entry["until"])
            )
            result = runner.run_controlled(
                entry["scenario"], entry["until"], RandomStrategy(seed=seed),
                on_simulation=scan.attach,
            )
            scan.finalize()
            scoped = result.violation
            expected = scan.violation
            assert (scoped and scoped.to_dict()) == (
                expected and expected.to_dict()
            ), (family, seed)
            assert result.report.exploration["monitor_checks"] == scan.checks
            fired += scoped is not None
    assert fired, f"no scenario exposed {algorithm}"


@pytest.mark.parametrize("algorithm,family", [
    (algorithm, family)
    for algorithm in ALGORITHMS
    for family in _families(algorithm)
])
def test_every_topology_node_has_a_harness(algorithm, family):
    """The monitors index ``harnesses`` by any link endpoint, so every
    topology node needs a harness, from attach to the end of the run."""
    for seed in range(3):
        entry = build_scenario(family, algorithm, seed)
        built = []
        runner.run_controlled(
            entry["scenario"], entry["until"], RandomStrategy(seed=seed),
            on_simulation=built.append,
        )
        (simulation,) = built
        assert sorted(simulation.harnesses) == simulation.topology.nodes()
        assert simulation.topology.nodes() == list(
            range(len(entry["scenario"]["positions"]))
        )


def test_every_state_changing_harness_entry_marks_its_node():
    """Including ``send`` / ``broadcast``: algorithm-owned timers (the
    doorway harness's module timer, the token baseline's hand-off) run
    outside the harness and touch the suite only through them."""

    class Idle(LocalMutexAlgorithm):
        name = "idle"

        def on_hungry(self):
            pass

        def on_exit_cs(self):
            pass

        def on_message(self, src, message):
            pass

    simulation = Simulation(ScenarioConfig(
        positions=[Point(0.0, 0.0), Point(1.0, 0.0)],
        algorithm=lambda context: Idle,
        scripted_hunger={},
    ))
    suite = MonitorSuite([])
    suite.attach(simulation)
    harness = simulation.harnesses[0]
    for name, call in [
        ("become_hungry", harness.become_hungry),
        ("start_eating", harness.start_eating),
        ("demote_to_hungry", harness.demote_to_hungry),
        ("start_eating", harness.start_eating),
        ("_finish_eating", harness._finish_eating),
        ("on_message", lambda: harness.on_message(1, Message())),
        ("on_link_up", lambda: harness.on_link_up(1, False)),
        ("on_link_down", lambda: harness.on_link_down(1)),
        ("send", lambda: harness.send(1, Message())),
        ("broadcast", lambda: harness.broadcast(Message())),
        ("crash", harness.crash),
    ]:
        suite._take_dirty()
        call()
        assert suite._take_dirty() == [0], name


def test_simultaneous_violations_report_the_full_scans_pick():
    """Several dirty nodes violating in one event: the suite names the
    node (or link) the full scan meets first."""
    doorways = {
        node: SimpleNamespace(behind=frozenset(), peers=set())
        for node in range(4)
    }
    for door in doorways.values():
        door.behind_set = lambda door=door: door.behind
        door.peers_behind = lambda name, door=door: door.peers
    peers = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
    harnesses = {
        node: SimpleNamespace(
            state=NodeState.THINKING,
            algorithm=SimpleNamespace(doorways=doorways[node]),
            neighbors=lambda node=node: frozenset(peers[node]),
        )
        for node in range(4)
    }
    engine = SimpleNamespace(
        add_listener=lambda listener: None, executed_events=1, now=0.0,
        stop=lambda: None,
    )
    topology = SimpleNamespace(
        links=lambda: [(0, 1), (1, 2), (2, 3)],
        sorted_neighbors=lambda node: tuple(sorted(peers[node])),
    )
    specs = [
        {"name": "exclusion", "params": {}},
        {"name": "doorway-entry", "params": {}},
    ]
    # One simulation per suite: each suite takes its own safety
    # checker's verdicts over.
    simulations = [
        SimpleNamespace(
            harnesses=harnesses, sim=engine, topology=topology,
            linklayer=SimpleNamespace(observers=[]),
            safety=SafetyMonitor(topology, harnesses),
        )
        for _ in specs
    ]
    suites = [MonitorSuite(build_monitors([spec])) for spec in specs]
    scans = [ScanSuite([spec]) for spec in specs]
    for suite, scan, simulation in zip(suites, scans, simulations):
        for each in (suite, scan):
            each.attach(simulation)
            each._on_event(engine)
    # Nodes 3 and 1 cross SDf while a peer is behind; nodes 3 and 2
    # enter the CS, then 1 and 0, each through the checker's hook.
    for node in (3, 1):
        doorways[node].behind = frozenset({"SDf"})
        doorways[node].peers = {node - 1}
    for node in (3, 2, 1, 0):
        harnesses[node].state = NodeState.EATING
        for simulation in simulations:
            simulation.safety.note_eating_start(node, engine.now)
    for suite, scan in zip(suites, scans):
        suite._dirty.update([3, 2, 1, 0])
        suite._on_event(engine)
        scan._on_event(engine)
        assert suite.violation.to_dict() == scan.violation.to_dict()
    assert [suite.violation.details for suite in suites] == [
        {"link": [0, 1]},
        {"node": 1, "doorway": "SDf", "peers_behind": [0]},
    ]


class Forkless(LocalMutexAlgorithm):
    """An unsafe toy protocol: eats the moment it is hungry, asks no one."""

    name = "forkless"

    def on_hungry(self):
        self.node.start_eating()

    def on_exit_cs(self):
        pass

    def on_message(self, src, message):
        pass


@pytest.mark.parametrize("case", ["static-neighbours", "link-up"])
def test_unmonitored_raise_and_exclusion_monitor_agree(monkeypatch, case):
    """One checker, two verdicts: a plain run raises where a monitored
    run records ``exclusion``, at the same time on the same link."""
    monkeypatch.setitem(registry.ALGORITHMS, "forkless", lambda ctx: Forkless)
    scenario = {
        "algorithm": "forkless",
        "positions": [[0.0, 0.0], [0.5, 0.0]],
        "scripted_hunger": {"0": [1.0], "1": [2.0]},
        "scripted_eating": {"0": [10.0], "1": [10.0]},
    }
    expected = (2.0, [0, 1])  # node 1 sits down next to eating node 0
    if case == "link-up":
        # Two distant eaters, then a scripted link joins them.
        scenario["positions"] = [[0.0, 0.0], [5.0, 0.0]]
        scenario["link_script"] = [[4.0, "up", 1, 0, -1]]
        expected = (4.0, [0, 1])

    with pytest.raises(SafetyViolation) as raised:
        Simulation(config_from_dict(scenario)).run(until=20.0)
    error = raised.value
    assert (error.time, sorted([error.node_a, error.node_b])) == expected

    result = runner.run_controlled(scenario, 20.0, RandomStrategy(seed=0))
    violation = result.violation
    assert violation.monitor == "exclusion"
    assert (violation.time, violation.details["link"]) == expected

    # A suite without ``exclusion`` still takes the verdicts: no raise.
    quiet = runner.run_controlled(
        scenario, 20.0, RandomStrategy(seed=0),
        monitor_specs=[{"name": "fork-uniqueness", "params": {}}],
    )
    assert quiet.violation is None


def test_priority_digraph_matches_full_scan_under_random_flips():
    """Cycles are rare in real runs; random ``higher[]`` flips on a
    4x4 grid make hundreds, and each must be reported as the full scan
    reports it (same cycle, same starting node)."""
    side = 4
    peers = {
        node: frozenset(
            other for other in range(side * side)
            if abs(other % side - node % side)
            + abs(other // side - node // side) == 1
        )
        for node in range(side * side)
    }
    higher = {node: {} for node in peers}
    harnesses = {
        node: SimpleNamespace(
            algorithm=SimpleNamespace(higher=higher[node]),
            neighbors=lambda node=node: peers[node],
        )
        for node in peers
    }
    simulation = SimpleNamespace(harnesses=harnesses, topology=SimpleNamespace(
        links=lambda: sorted((a, b) for a in peers for b in peers[a] if a < b),
    ))
    monitor, scan = PriorityMonitor({}), PriorityScan({})

    def restart():
        # Ids rank the nodes: an acyclic start, judged in full.
        for node, flags in higher.items():
            flags.clear()
            flags.update({peer: peer > node for peer in peers[node]})
        monitor.attach(simulation)
        scan.attach(simulation)
        assert monitor.check(sorted(peers)) is None
        assert scan.check() is None

    rng = random.Random(11)
    restart()
    verdicts = {"cycle": 0, "antisymmetry": 0}
    for _ in range(3000):
        a = rng.randrange(side * side)
        b = rng.choice(sorted(peers[a]))
        roll = rng.random()
        if roll < 0.02:
            higher[a][b] = higher[b][a] = False
            dirty = [a, b]
        elif roll < 0.3:
            higher[a][b] = not higher[a][b]
            dirty = [a]
        else:
            higher[a][b] = rng.random() < 0.5
            higher[b][a] = not higher[a][b]
            dirty = [a, b]
        scoped = monitor.check(sorted(set(dirty)))
        assert scoped == scan.check()
        if scoped is not None:
            verdicts[scoped["kind"]] += 1
            restart()
    assert verdicts["cycle"] > 50 and verdicts["antisymmetry"] > 5


@pytest.mark.fuzz
@pytest.mark.parametrize("algorithm,family,seed", _cases(range(3, 30)))
def test_fuzz_scoped_verdicts_match_full_scan(
    monkeypatch, algorithm, family, seed
):
    _assert_lockstep(monkeypatch, algorithm, family, seed)
