"""Tests for the runtime: harness transitions, workloads, crashes."""

import pytest

from repro.core.base import LocalMutexAlgorithm
from repro.core.states import NodeState, check_transition
from repro.errors import ConfigurationError, ProtocolError
from repro.net.geometry import line_positions
from repro.runtime.app import INITIAL_DELAY_RANGE
from repro.runtime.simulation import ScenarioConfig, Simulation, peak_rss_kb
from repro.sim.rng import RandomSource


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


def test_first_hunger_is_the_first_draw_of_the_node_workload_stream():
    # The simulator and the live bus both draw a node's first hunger as
    # the first uniform draw of its ("workload", node) substream over
    # INITIAL_DELAY_RANGE; think times are >= 1, so by t = 1 every node
    # has been hungry exactly once.
    config = ScenarioConfig(
        positions=line_positions(5, spacing=1.0),
        radio_range=1.1,
        algorithm="alg2",
        seed=11,
    )
    simulation = Simulation(config)
    result = simulation.run(until=INITIAL_DELAY_RANGE[1])
    first = dict(simulation.metrics.hungry_nodes())
    first.update((s.node, s.hungry_at) for s in result.metrics.samples)
    source = RandomSource(config.seed)
    assert first == {
        node: source.stream("workload", node).uniform(*INITIAL_DELAY_RANGE)
        for node in range(5)
    }


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


def test_wall_rates_do_not_leak_into_report_engine_block():
    result = Simulation(_line_config()).run(until=20.0)
    assert "wall_time_s" in result.engine
    report = result.report()
    assert "wall_time_s" not in report.engine
    assert "events_per_sec" not in report.engine
