"""Tests for metrics: collector, safety monitor, locality report."""

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import SafetyViolation
from repro.metrics.collector import MetricsCollector
from repro.metrics.locality import measure_failure_locality
from repro.metrics.safety import SafetyMonitor
from repro.core.states import NodeState
from repro.net.geometry import Point, line_positions
from repro.net.topology import DynamicTopology


# ----------------------------------------------------------------------
# MetricsCollector
# ----------------------------------------------------------------------


def test_response_time_recorded_per_episode():
    m = MetricsCollector()
    m.note_fx(10.0, "hungry", 1)
    m.note_fx(13.5, "enter", 1)
    m.note_fx(14.0, "exit", 1)
    assert m.response_times() == [3.5]
    assert m.counters[1].cs_entries == 1
    assert m.counters[1].cs_completions == 1


def test_demotion_restarts_the_clock_and_flags_sample():
    m = MetricsCollector()
    m.note_fx(0.0, "hungry", 1)
    m.note_fx(2.0, "enter", 1)
    m.note_fx(5.0, "demote", 1)
    m.note_fx(9.0, "enter", 1)
    samples = m.samples
    assert [s.response_time for s in samples] == [2.0, 4.0]
    assert samples[1].after_demotion
    assert m.counters[1].demotions == 1


def test_starving_threshold():
    m = MetricsCollector()
    m.note_fx(0.0, "hungry", 1)
    m.note_fx(90.0, "hungry", 2)
    assert m.starving(now=100.0, threshold=50.0) == [1]
    assert m.hungry_nodes() == {1: 0.0, 2: 90.0}


def test_empty_collector_queries():
    m = MetricsCollector()
    assert m.response_times() == []
    assert m.total_cs_entries() == 0


# ----------------------------------------------------------------------
# SafetyMonitor
# ----------------------------------------------------------------------


class StubHarness:
    def __init__(self, state=NodeState.THINKING):
        self.state = state


def build_monitor():
    topo = DynamicTopology(radio_range=1.5)
    for i, p in enumerate(line_positions(3, 1.0)):
        topo.add_node(i, p)
    harnesses = {i: StubHarness() for i in range(3)}
    return topo, harnesses, SafetyMonitor(topo, harnesses)


def recording_monitor():
    """A monitor whose verdicts are taken over, as a suite takes them."""
    topo, harnesses, monitor = build_monitor()
    flagged = []
    monitor.flag = lambda time, a, b: flagged.append((time, a, b))
    return harnesses, monitor, flagged


def test_monitor_raises_on_neighbor_violation():
    topo, harnesses, monitor = build_monitor()
    harnesses[0].state = NodeState.EATING
    harnesses[1].state = NodeState.EATING
    with pytest.raises(SafetyViolation):
        monitor.note_eating_start(1, time=5.0)


def _violate_in_worker():
    topo, harnesses, monitor = build_monitor()
    harnesses[0].state = NodeState.EATING
    harnesses[1].state = NodeState.EATING
    monitor.note_eating_start(1, time=5.0)


def test_safety_violation_pickles_with_its_fields():
    error = pickle.loads(pickle.dumps(SafetyViolation(1.0, 2, 3)))
    assert type(error) is SafetyViolation
    assert (error.time, error.node_a, error.node_b) == (1.0, 2, 3)
    assert str(error) == str(SafetyViolation(1.0, 2, 3))


def test_safety_violation_in_a_process_pool_arrives_as_itself():
    """What ``replicate(workers>1)`` sees when a seed's run violates
    safety (an unmonitored run raises)."""
    with ProcessPoolExecutor(max_workers=1) as pool:
        with pytest.raises(SafetyViolation) as raised:
            pool.submit(_violate_in_worker).result()
    assert (raised.value.node_a, raised.value.node_b) == (1, 0)
    assert raised.value.time == 5.0


def test_monitor_allows_distance_two_eaters():
    harnesses, monitor, flagged = recording_monitor()
    harnesses[0].state = NodeState.EATING
    harnesses[2].state = NodeState.EATING
    monitor.note_eating_start(2, time=5.0)  # 0 and 2 are not neighbors
    assert flagged == []


def test_monitor_hands_every_eating_neighbor_to_its_flag():
    harnesses, monitor, flagged = recording_monitor()
    for node in (2, 0, 1):
        harnesses[node].state = NodeState.EATING
    monitor.note_eating_start(1, time=5.0)
    assert flagged == [(5.0, 1, 0), (5.0, 1, 2)]  # ascending peers


def test_monitor_link_event_check():
    harnesses, monitor, flagged = recording_monitor()
    harnesses[1].state = NodeState.EATING
    harnesses[2].state = NodeState.EATING
    monitor.on_link_event("up", 1, 2, time=7.0)
    assert flagged == [(7.0, 1, 2)]
    monitor.on_link_event("down", 1, 2, time=8.0)  # downs are ignored
    assert flagged == [(7.0, 1, 2)]


# ----------------------------------------------------------------------
# Locality report
# ----------------------------------------------------------------------


def test_locality_report_distances_and_radius():
    topo = DynamicTopology(radio_range=1.5)
    for i, p in enumerate(line_positions(7, 1.0)):
        topo.add_node(i, p)
    report = measure_failure_locality(
        topo,
        crashed=[3],
        hungry_after_crash=[0, 1, 2, 4, 5, 6],
        ate_after_crash=[0, 1, 5, 6],
    )
    assert report.starved == [2, 4]
    assert report.starvation_radius == 1
    assert report.progress_radius == 2
    assert report.starved_by_distance() == {1: 2}


def test_locality_report_no_starvation():
    topo = DynamicTopology(radio_range=1.5)
    for i, p in enumerate(line_positions(3, 1.0)):
        topo.add_node(i, p)
    report = measure_failure_locality(
        topo, crashed=[0], hungry_after_crash=[1, 2], ate_after_crash=[1, 2]
    )
    assert report.starved == []
    assert report.starvation_radius is None
    assert report.progress_radius == 0


def test_locality_report_crashed_nodes_excluded():
    topo = DynamicTopology(radio_range=1.5)
    for i, p in enumerate(line_positions(3, 1.0)):
        topo.add_node(i, p)
    report = measure_failure_locality(
        topo, crashed=[1], hungry_after_crash=[1, 2], ate_after_crash=[]
    )
    assert report.starved == [2]


def _two_crash_line():
    """Path 0-1-...-7 plus node 9 out of range; nodes 1 and 5 crash."""
    topo = DynamicTopology(radio_range=1.1)
    for i, p in enumerate(line_positions(8, 1.0)):
        topo.add_node(i, p)
    topo.add_node(9, Point(30.0, 30.0))
    return topo, [1, 5]


def test_distances_from_several_sources_is_the_per_source_minimum():
    topo, crashed = _two_crash_line()
    each = [dict(topo.distances_from(c)) for c in crashed]
    both = topo.distances_from(*crashed)
    assert both == {
        node: min(d[node] for d in each if node in d)
        for node in set(each[0]) | set(each[1])
    }
    assert both == {0: 1, 1: 0, 2: 1, 3: 2, 4: 1, 5: 0, 6: 1, 7: 2}
    # The hop limit cuts the search, not just the answer.
    assert topo.distances_from(*crashed, limit=1) == {
        node: d for node, d in both.items() if d <= 1
    }
    assert topo.distances_from(*crashed, limit=0) == {1: 0, 5: 0}
    # The locality metric reads the same distances.
    report = measure_failure_locality(
        topo, crashed=crashed, hungry_after_crash=[], ate_after_crash=[]
    )
    assert report.distances == both


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_progress_monitor_exempts_within_radius_of_either_crash(radius):
    from types import SimpleNamespace

    from repro.explore.monitors import ProgressMonitor

    topo, crashed = _two_crash_line()
    metrics = MetricsCollector()
    for node in crashed:
        metrics.note_fx(3.0, "crashed", node)
    monitor = ProgressMonitor({"threshold": 10.0, "exempt_radius": radius})
    monitor.attach(SimpleNamespace(metrics=metrics, topology=topo))
    exempt = {node for node in topo.nodes() if monitor._exempt(node)}
    expected = {
        0: set(),
        1: {0, 1, 2, 4, 5, 6},
        2: {0, 1, 2, 3, 4, 5, 6, 7},
    }[radius]
    assert exempt == expected


def test_collector_ignores_stage_marks():
    m = MetricsCollector()
    m.note_fx(0.0, "hungry", 1)
    m.note_fx(1.0, "ADf", 1)
    m.note_fx(2.0, "recolor", 1)
    m.note_fx(3.0, "enter", 1)
    assert m.response_times() == [3.0]
    assert m.counters[1].hungry_count == 1
    assert m.crashed == {}


def test_think_clears_demotion_flag_for_the_next_episode():
    m = MetricsCollector()
    m.note_fx(0.0, "hungry", 1)
    m.note_fx(2.0, "enter", 1)
    m.note_fx(5.0, "demote", 1)
    # The demoted node gives up and thinks instead of re-entering; the
    # *next* hungry episode is a fresh one, not an after-demotion retry.
    m.note_fx(6.0, "exit", 1)
    m.note_fx(10.0, "hungry", 1)
    m.note_fx(12.0, "enter", 1)
    assert [s.after_demotion for s in m.samples] == [False, False]


def test_note_crash_clears_live_state():
    m = MetricsCollector()
    m.note_fx(0.0, "hungry", 2)
    m.note_fx(5.0, "crashed", 2)
    assert m.crashed == {2: 5.0}
    assert 2 not in m.hungry_nodes()
    assert m.starving(now=100.0, threshold=10.0) == []


def test_note_crash_clears_pending_demotion():
    m = MetricsCollector()
    m.note_fx(0.0, "hungry", 3)
    m.note_fx(1.0, "enter", 3)
    m.note_fx(2.0, "demote", 3)
    m.note_fx(3.0, "crashed", 3)
    # A dead node's half-open demotion episode never flags a later
    # sample (e.g. if node ids were ever reused by a restart model).
    m.note_fx(10.0, "hungry", 3)
    m.note_fx(11.0, "enter", 3)
    assert m.samples[-1].after_demotion is False
