"""Tests for the runtime: harness transitions, workloads, crashes."""

import dataclasses

import pytest

from repro.core.base import LocalMutexAlgorithm
from repro.core.states import NodeState, check_transition
from repro.errors import ConfigurationError, ProtocolError
from repro.net.geometry import line_positions
from repro.runtime.simulation import ScenarioConfig, Simulation, peak_rss_kb


class GreedyEater(LocalMutexAlgorithm):
    """Degenerate protocol: eat immediately when hungry (no neighbors
    assumed); used to exercise the harness plumbing in isolation."""

    name = "greedy-eater"

    def on_hungry(self):
        self.node.start_eating()

    def on_exit_cs(self):
        pass

    def on_message(self, src, message):
        pass


def eater_entry(ctx):
    return GreedyEater


def single_node_sim(**overrides):
    config = ScenarioConfig(
        positions=line_positions(1, spacing=5.0),
        algorithm=eater_entry,
        seed=1,
        **overrides,
    )
    return Simulation(config)


def test_state_transition_validation():
    check_transition(NodeState.THINKING, NodeState.HUNGRY)
    check_transition(NodeState.EATING, NodeState.HUNGRY)
    with pytest.raises(ProtocolError):
        check_transition(NodeState.THINKING, NodeState.EATING)
    with pytest.raises(ProtocolError):
        check_transition(NodeState.HUNGRY, NodeState.THINKING)


def test_harness_cycles_states_and_counts():
    sim = single_node_sim(think_range=(1.0, 1.0))
    result = sim.run(until=50.0)
    counters = result.metrics.counters[0]
    assert counters.cs_entries >= 10
    assert counters.cs_entries == counters.cs_completions
    assert all(rt >= 0 for rt in result.response_times)


def test_max_entries_caps_workload():
    sim = single_node_sim(max_entries=3)
    result = sim.run(until=200.0)
    assert result.metrics.counters[0].cs_entries == 3


def test_scripted_hunger_runs_at_exact_times():
    sim = single_node_sim(scripted_hunger={0: [5.0, 9.0]})
    result = sim.run(until=50.0)
    hungry_times = [s.hungry_at for s in result.metrics.samples]
    assert hungry_times == [5.0, 9.0]


def test_become_hungry_ignored_unless_thinking():
    sim = single_node_sim(scripted_hunger={0: [5.0, 5.0, 5.0]})
    result = sim.run(until=50.0)
    # Duplicate hungers collapse into one episode.
    assert result.metrics.counters[0].cs_entries == 1


def test_crashed_node_stops_everything():
    sim = single_node_sim(think_range=(1.0, 1.0), crashes=[(10.0, 0)])
    result = sim.run(until=100.0)
    entries = result.metrics.counters[0].cs_entries
    # Roughly 10 / (1 think + ~0.75 eat) entries before the crash; none after.
    assert 3 <= entries <= 10


def test_config_rejects_empty_positions():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(positions=[])


def test_unknown_algorithm_rejected():
    with pytest.raises(ConfigurationError):
        Simulation(
            ScenarioConfig(
                positions=line_positions(2, 1.0), algorithm="nope"
            )
        )


def test_determinism_same_seed_same_run():
    def run(seed):
        config = ScenarioConfig(
            positions=line_positions(6, spacing=1.0),
            algorithm="alg2",
            seed=seed,
            think_range=(0.5, 2.0),
        )
        result = Simulation(config).run(until=120.0)
        return (
            result.cs_entries,
            result.messages_sent,
            tuple(round(t, 12) for t in result.response_times),
        )

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_messages_per_cs_none_when_no_entries():
    sim = single_node_sim(scripted_hunger={0: []})
    result = sim.run(until=10.0)
    assert result.cs_entries == 0
    assert result.messages_per_cs() is None


def test_locality_report_requires_crash_plan():
    sim = single_node_sim()
    sim.run(until=10.0)
    with pytest.raises(ConfigurationError):
        sim.locality_report()


# ----------------------------------------------------------------------
# Wall-clock resources stay out of the deterministic report
# ----------------------------------------------------------------------


def _line_config(n=8):
    return ScenarioConfig(
        positions=line_positions(n, spacing=1.0),
        radio_range=1.1,
        algorithm="alg2",
        seed=3,
    )


def test_peak_rss_reported_on_linux():
    rss = peak_rss_kb()
    assert rss is None or rss > 0


def test_resources_in_report_only_when_profiling():
    plain = Simulation(_line_config()).run(until=20.0)
    assert plain.resources["wall_time_s"] >= 0.0
    assert plain.resources["events_per_sec"] >= 0.0
    assert plain.report().resources is None

    profiled = Simulation(
        dataclasses.replace(_line_config(), profile=True)
    ).run(until=20.0)
    report = profiled.report()
    assert report.resources is not None
    assert set(report.resources) >= {
        "wall_time_s", "events_per_sec", "peak_rss_kb",
    }


def test_wall_rates_do_not_leak_into_report_engine_block():
    result = Simulation(_line_config()).run(until=20.0)
    assert "wall_time_s" in result.engine
    report = result.report()
    assert "wall_time_s" not in report.engine
    assert "events_per_sec" not in report.engine
