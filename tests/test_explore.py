"""Unit tests for the exploration subsystem's moving parts.

Covers the controlled schedulers and their decision traces, the repro
file format, the controlled runner (probes, report section, replay
bit-identity), monitor selection, and the ``explore``
CLI.  End-to-end ablation catching lives in
``test_explore_ablations.py``; shrinking in ``test_explore_shrink.py``.
"""

import io
import json

import pytest

from repro import __version__
from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.explore import (
    ReproFile,
    ReplaySchedule,
    RandomStrategy,
    replay,
    run_campaign,
    run_controlled,
    scenario_pool,
)
from repro.explore.monitors import build_monitors, default_monitor_specs
from repro.explore.repro_file import REPRO_SCHEMA_VERSION
from repro.explore.scenarios import build_scenario
from repro.explore.schedule import build_strategy


def _line_scenario(algorithm="alg2", n=4, until=30.0):
    hunger = {str(node): [1.0 + node, 10.0 + node] for node in range(n)}
    return {
        "algorithm": algorithm,
        "positions": [[float(i), 0.0] for i in range(n)],
        "seed": 5,
        "telemetry": True,
        "scripted_hunger": hunger,
    }, until


# ----------------------------------------------------------------------
# Schedulers
# ----------------------------------------------------------------------


def test_scheduler_records_and_clamps_decisions():
    strategy = RandomStrategy(seed=9)
    strategy.bind(min_message_delay=0.5, nu=1.0)
    for _ in range(50):
        delay = strategy.message_delay(0, 1, None)
        assert 0.5 <= delay <= 1.0
    assert strategy.log.counts() == {"t": 0, "d": 50}


def test_same_seed_same_decisions():
    a, b = RandomStrategy(seed=4), RandomStrategy(seed=4)
    for s in (a, b):
        s.bind(0.5, 1.0)
        for _ in range(10):
            s.message_delay(0, 1, None)
    assert a.log.decisions == b.log.decisions


def test_replay_schedule_splits_queues_by_type():
    schedule = ReplaySchedule([["d", 0.75], ["t", 2], ["d", 0.5]])
    schedule.bind(0.5, 1.0)
    # Types interleave differently than recorded; per-type queues keep
    # each stream aligned.
    assert schedule.message_delay(0, 1, None) == 0.75
    assert schedule.tie_break([object()] * 5) == 2
    assert schedule.message_delay(0, 1, None) == 0.5


def test_replay_schedule_defaults_when_exhausted():
    schedule = ReplaySchedule([])
    schedule.bind(0.5, 2.0)
    assert schedule.tie_break([object(), object()]) == 0
    assert schedule.message_delay(0, 1, None) == 2.0
    # A repro stores the scenario that ran: replay runs it as given.
    scenario = {"crashes": [[4.5, 1]]}
    assert schedule.perturb(scenario) is scenario


def test_replay_schedule_rejects_unknown_kinds():
    # "c" (crash time) was a decision kind up to repro schema 1; crash
    # timing is scenario data now.
    for kind in ("x", "c"):
        with pytest.raises(ConfigurationError):
            ReplaySchedule([[kind, 1]])


def test_build_strategy_round_trips_descriptors():
    for descriptor in (
        {"kind": "random", "seed": 3},
        {"kind": "pct", "seed": 3, "depth": 2, "expected_decisions": 100},
    ):
        strategy = build_strategy(descriptor)
        assert strategy.describe() == descriptor
    with pytest.raises(ConfigurationError):
        build_strategy({"kind": "oracle"})


# ----------------------------------------------------------------------
# Repro files
# ----------------------------------------------------------------------


def _sample_repro():
    scenario, until = _line_scenario()
    return ReproFile(
        scenario=scenario,
        until=until,
        strategy={"kind": "random", "seed": 1},
        monitors=[{"name": "exclusion", "params": {}}],
        decisions=[["d", 0.625], ["t", 1]],
        violation={"monitor": "exclusion", "step": 4, "time": 2.0,
                   "details": {}},
    )


def test_repro_file_round_trips_canonically(tmp_path):
    repro = _sample_repro()
    path = repro.save(tmp_path / "case.json")
    loaded = ReproFile.load(path)
    assert loaded.to_dict() == repro.to_dict()
    assert loaded.schema_version == REPRO_SCHEMA_VERSION
    assert loaded.version == __version__
    text = path.read_text()
    assert json.loads(text)["decisions"] == [["d", 0.625], ["t", 1]]


@pytest.mark.parametrize("schema", [1, 2, REPRO_SCHEMA_VERSION + 1])
def test_repro_file_rejects_other_schemas(schema):
    data = _sample_repro().to_dict()
    data["schema_version"] = schema
    with pytest.raises(ConfigurationError):
        ReproFile.from_dict(data)
    with pytest.raises(ConfigurationError):
        ReproFile.from_dict({"schema_version": REPRO_SCHEMA_VERSION})


# ----------------------------------------------------------------------
# Controlled runs
# ----------------------------------------------------------------------


def test_run_controlled_reports_exploration_and_probes():
    scenario, until = _line_scenario()
    result = run_controlled(scenario, until, RandomStrategy(seed=2))
    assert result.violation is None
    assert result.steps > 0 and result.decisions
    section = result.report.exploration
    assert section["strategy"] == {"kind": "random", "seed": 2}
    assert section["decisions"]["delay"] > 0
    assert section["monitor_checks"] > 0
    assert section["violation"] is None
    assert "explore.decisions" in result.report.probes
    assert "explore.monitor_checks" in result.report.probes
    assert result.report.version == __version__


def test_run_controlled_rejects_reused_strategies():
    scenario, until = _line_scenario()
    strategy = RandomStrategy(seed=2)
    run_controlled(scenario, until, strategy)
    with pytest.raises(ConfigurationError):
        run_controlled(scenario, until, strategy)


def test_identical_runs_are_bit_identical():
    scenario, until = _line_scenario()
    first = run_controlled(scenario, until, RandomStrategy(seed=6))
    second = run_controlled(scenario, until, RandomStrategy(seed=6))
    assert first.report.to_json() == second.report.to_json()
    assert first.decisions == second.decisions


def test_replay_reproduces_recorded_violation_exactly():
    campaign = run_campaign(
        "alg1-nodoorway", runs=12, seed=1, stop_on_first=True
    )
    repro = campaign.violations[0]
    result = replay(repro)
    assert result.violation.to_dict() == repro.violation
    again = replay(repro)
    assert again.report.to_json() == result.report.to_json()


def test_controlled_runs_drive_the_kinetic_engine():
    # Fuzzing must exercise the movement path every other run uses:
    # link changes come from kinetic crossing events, not from steps.
    entry = build_scenario("mobility-waypoint", "alg2", seed=0)
    simulations = []
    result = run_controlled(
        entry["scenario"], entry["until"], RandomStrategy(seed=3),
        on_simulation=simulations.append,
    )
    assert simulations[0].mobility.stats()["crossing_events"] > 0
    # A crossing toggles one link and moves no stored position.
    updates = result.report.probes["mobility.updates"]["by_key"]
    assert "crossing" not in updates and "step" not in updates
    again = run_controlled(
        entry["scenario"], entry["until"], ReplaySchedule(result.decisions),
        monitor_specs=result.monitor_specs,
    )
    assert again.decisions == result.decisions
    # Only the strategy descriptor names who made the decisions.
    original = result.report.to_dict()
    original["exploration"]["strategy"] = {"kind": "replay"}
    assert json.dumps(original, sort_keys=True) == json.dumps(
        again.report.to_dict(), sort_keys=True
    )


# ----------------------------------------------------------------------
# Monitor selection and scenario pools
# ----------------------------------------------------------------------


def test_default_monitor_specs_follow_algorithm_and_hazards():
    base, until = _line_scenario("alg1-greedy")
    names = [s["name"] for s in default_monitor_specs(base, until)]
    assert names == ["exclusion", "fork-uniqueness", "doorway-entry",
                     "return-path", "progress"]

    alg2, until = _line_scenario("alg2")
    names = [s["name"] for s in default_monitor_specs(alg2, until)]
    assert "priority" in names and "stale-priority" in names

    mobile = dict(alg2, mobility=[{"kind": "waypoint", "nodes": [0],
                                   "params": {"width": 4.0, "height": 1.0}}])
    mobile_specs = default_monitor_specs(mobile, until)
    names = [s["name"] for s in mobile_specs]
    assert "stale-priority" not in names
    # Under churn the acyclicity half of the priority check is off
    # (in-flight abdications crossing link formations weave settled,
    # self-healing cycles); antisymmetry stays on.
    priority = [s for s in mobile_specs if s["name"] == "priority"]
    assert priority and priority[0]["params"] == {"cycles": False}
    static_priority = [s for s in default_monitor_specs(alg2, until)
                       if s["name"] == "priority"]
    assert static_priority and static_priority[0]["params"] == {}

    # Scripted link rows are churn too, wherever they come from (a
    # replayed recording, a link perturbation).
    scripted = dict(alg2, link_script=[[5.0, "down", 0, 1, -1],
                                       [9.0, "up", 0, 1, -1]])
    assert default_monitor_specs(scripted, until) == mobile_specs
    assert default_monitor_specs(dict(alg2, link_script=[]), until) == \
        default_monitor_specs(alg2, until)

    crashed = dict(alg2, crashes=[[5.0, 1]])
    specs = default_monitor_specs(crashed, until)
    progress = [s for s in specs if s["name"] == "progress"]
    assert progress and progress[0]["params"]["exempt_radius"] == 2

    crashed_alg1 = dict(base, crashes=[[5.0, 1]])
    names = [s["name"] for s in default_monitor_specs(crashed_alg1, until)]
    assert "progress" not in names


def test_stale_priority_bound_reads_nu_through_the_codec():
    from repro.sim.clock import TimeBounds

    alg2, until = _line_scenario("alg2")

    def bound(scenario):
        (spec,) = [s for s in default_monitor_specs(scenario, until)
                   if s["name"] == "stale-priority"]
        return spec["params"]["bound"]

    assert bound(dict(alg2, bounds={"nu": 2.5})) == 7.5
    # Without ``bounds`` the default is TimeBounds' own.
    assert "bounds" not in alg2
    assert bound(alg2) == 3 * TimeBounds().nu


def test_priority_monitor_cycle_gate():
    from types import SimpleNamespace

    from repro.explore.monitors import PriorityMonitor

    def fake_sim(higher):
        peers = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
        harnesses = {
            node: SimpleNamespace(
                algorithm=SimpleNamespace(higher=flags),
                neighbors=lambda node=node: frozenset(peers[node]),
            )
            for node, flags in higher.items()
        }
        return SimpleNamespace(harnesses=harnesses)

    # A settled 3-cycle: 1 outranks 0, 2 outranks 1, 0 outranks 2.
    cycle = {
        0: {1: True, 2: False},
        1: {0: False, 2: True},
        2: {1: False, 0: True},
    }
    checking = PriorityMonitor({})
    checking.attach(fake_sim(cycle))
    details = checking.check([0, 1, 2])
    # Listed from where a DFS over sorted links enters it.
    assert details == {"kind": "cycle", "cycle": [0, 1, 2, 0]}

    gated = PriorityMonitor({"cycles": False})
    gated.attach(fake_sim(cycle))
    assert gated.check([0, 1, 2]) is None

    # Antisymmetry stays armed even with the cycle half off.
    both_low = {
        0: {1: False, 2: False},
        1: {0: False, 2: True},
        2: {1: False, 0: True},
    }
    gated.attach(fake_sim(both_low))
    details = gated.check([0, 1, 2])
    assert details is not None and details["kind"] == "antisymmetry"


def test_suite_reads_only_the_event_neighbourhood():
    from types import SimpleNamespace

    from repro.core.states import NodeState
    from repro.explore.monitors import MonitorSuite
    from repro.metrics.safety import SafetyMonitor
    from repro.net.geometry import Point
    from repro.net.linklayer import LinkLayer
    from repro.net.topology import DynamicTopology
    from repro.runtime.node import NodeHarness
    from repro.sim.clock import TimeBounds

    class RecordingHarnesses(dict):
        """A harness mapping that logs every node looked up in it."""

        def __init__(self, *args):
            super().__init__(*args)
            self.read = set()

        def __getitem__(self, node):
            self.read.add(node)
            return super().__getitem__(node)

        def get(self, node, default=None):
            self.read.add(node)
            return super().get(node, default)

    engine = SimpleNamespace(
        add_listener=lambda listener: None, executed_events=1, now=0.0,
        stop=lambda: None,
    )
    # Line 0-1-2-3-4; pair 8-9 off to the side.
    topology = DynamicTopology(radio_range=1.1)
    topology.add_nodes([(node, Point(float(node), 0.0)) for node in range(5)])
    topology.add_nodes([(8, Point(4.0, 8.0)), (9, Point(4.0, 9.0))])
    linklayer = LinkLayer(topology)
    harnesses = RecordingHarnesses()
    # The safety checker on its two hooks, wired as Simulation wires it:
    # link events through the link layer, CS entries through the sink.
    safety = SafetyMonitor(topology, harnesses)
    linklayer.observers.append(
        lambda kind, a, b: safety.on_link_event(kind, a, b, engine.now)
    )

    def note(time, tag, node):
        if tag == "enter":
            safety.note_eating_start(node, time)

    for node in (0, 1, 2, 3, 4, 8, 9):
        harness = NodeHarness(node, engine, linklayer, TimeBounds(), note,
                              eat_rng=None)
        # Each node holds the forks it shares with higher ids, so the
        # fork check looks past every dirty node to some neighbours.
        harness.bind(SimpleNamespace(
            on_message=lambda src, message: None,
            on_link_up=lambda peer, moving: None,
            forks=SimpleNamespace(holds=lambda peer, node=node: peer > node),
        ))
        linklayer.register(node, harness)
        harnesses[node] = harness
    suite = MonitorSuite(build_monitors([
        {"name": "exclusion", "params": {}},
        {"name": "fork-uniqueness", "params": {}},
    ]))
    suite.attach(SimpleNamespace(
        harnesses=harnesses, topology=topology, linklayer=linklayer,
        sim=engine, safety=safety,
    ))
    suite._on_event(engine)  # the first check reads everyone
    assert harnesses.read == {0, 1, 2, 3, 4, 8, 9}

    # A delivery: the destination and its neighbours, nobody else.
    harnesses.read.clear()
    linklayer.deliver(0, 1, None)
    suite._on_event(engine)
    assert {1, 2} <= harnesses.read <= {0, 1, 2}

    # A new link: its endpoints and their neighbours, nobody else.
    harnesses.read.clear()
    linklayer.apply_diff(topology.force_link(4, 9, True))
    suite._on_event(engine)
    assert {4, 9} <= harnesses.read <= {3, 4, 8, 9}
    assert suite.violation is None

    # Two nodes that crashed mid-meal run no code when a link joins
    # them: only the link-layer observer can reveal the conflict, and
    # it must, at once.  Each entered the CS (the harness's state flip
    # and its safety hook) while not yet adjacent to the other.
    for node in (0, 2):
        harnesses[node]._state = NodeState.EATING
        safety.note_eating_start(node, engine.now)
        harnesses[node].crash()
        linklayer.crash(node)
    suite._on_event(engine)
    assert suite.violation is None
    harnesses.read.clear()
    linklayer.apply_diff(topology.force_link(0, 2, True))
    suite._on_event(engine)
    # The checker reads the new link's endpoints; the exclusion monitor
    # reads nothing and stops the suite before the fork check runs.
    assert harnesses.read == {0, 2}
    assert suite.violation.monitor == "exclusion"
    assert suite.violation.details == {"link": [0, 2]}


def test_progress_monitor_is_silent_about_exempt_starvation(caplog):
    import logging

    from oracles.monitor_scan import ScanSuite
    from repro.explore.scenarios import build_scenario

    # Node 2 crashes at t=29.6; its neighbours 1 and 3 then starve.
    entry = build_scenario("crash-line", "alg2", 4)

    def specs(exempt_radius):
        return [{"name": "progress", "params": {
            "threshold": 20.0, "exempt_radius": exempt_radius,
        }}]

    caplog.set_level(logging.DEBUG)
    exempt = run_controlled(
        entry["scenario"], entry["until"], RandomStrategy(seed=4),
        monitor_specs=specs(2),
    )
    assert exempt.violation is None
    assert caplog.records == []

    # Without the exemption the same starvation fires, exactly where
    # the whole-network scan fires it.
    scan = ScanSuite(specs(0))
    flagged = run_controlled(
        entry["scenario"], entry["until"], RandomStrategy(seed=4),
        monitor_specs=specs(0), on_simulation=scan.attach,
    )
    assert flagged.violation.details["node"] == 3
    assert flagged.violation.to_dict() == scan.violation.to_dict()


def test_build_monitors_validates_specs():
    monitors = build_monitors([
        {"name": "exclusion", "params": {}},
        {"name": "progress", "params": {"threshold": 10.0}},
    ])
    assert [m.name for m in monitors] == ["exclusion", "progress"]
    with pytest.raises(ConfigurationError):
        build_monitors([{"name": "psychic", "params": {}}])
    with pytest.raises(ConfigurationError):
        build_monitors([{"name": "stale-priority", "params": {}}])


def test_scenario_pool_is_reproducible_and_family_gated():
    first = scenario_pool("alg2", count=8, seed=3)
    second = scenario_pool("alg2", count=8, seed=3)
    assert first == second
    assert all(e["family"] != "fig6" for e in first)
    alg1 = scenario_pool("alg1-greedy", count=12, seed=3)
    assert any(e["family"] == "fig6" for e in alg1)
    for entry in first:
        assert entry["scenario"]["algorithm"] == "alg2"
        assert entry["until"] > 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def run_cli(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


def test_cli_version_flag():
    code, output = run_cli("--version")
    assert code == 0
    assert output == f"repro {__version__}\n"


def test_cli_explore_fuzz_clean_exits_zero(tmp_path):
    code, output = run_cli(
        "explore", "fuzz", "--algorithm", "alg2", "--runs", "2",
        "--seed", "1", "--out", str(tmp_path / "repros"),
    )
    assert code == 0
    assert "campaign clean" in output
    assert not (tmp_path / "repros").exists()


def test_cli_explore_fuzz_replay_shrink_pipeline(tmp_path):
    out_dir = tmp_path / "repros"
    code, output = run_cli(
        "explore", "fuzz", "--algorithm", "alg2-nonotify",
        "--runs", "4", "--seed", "1", "--stop-on-first",
        "--out", str(out_dir),
    )
    assert code == 1
    assert "stale-priority" in output
    files = sorted(out_dir.glob("*.json"))
    assert len(files) == 1

    code, output = run_cli("explore", "replay", str(files[0]))
    assert code == 0
    assert "reproduced" in output

    code, output = run_cli("explore", "shrink", str(files[0]))
    assert code == 0
    minimal = files[0].with_suffix(".min.json")
    assert minimal.exists()
    assert "shrunk size" in output

    code, output = run_cli("explore", "replay", str(minimal))
    assert code == 0


def test_cli_explore_replay_rejects_missing_file(tmp_path):
    code, output = run_cli("explore", "replay", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error" in output
