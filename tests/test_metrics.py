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
    m.note_hungry(1, 10.0)
    m.note_eat_start(1, 13.5)
    m.note_think(1, 14.0)
    assert m.response_times() == [3.5]
    assert m.counters[1].cs_entries == 1
    assert m.counters[1].cs_completions == 1


def test_demotion_restarts_the_clock_and_flags_sample():
    m = MetricsCollector()
    m.note_hungry(1, 0.0)
    m.note_eat_start(1, 2.0)
    m.note_demotion(1, 5.0)
    m.note_eat_start(1, 9.0)
    samples = m.samples
    assert [s.response_time for s in samples] == [2.0, 4.0]
    assert samples[1].after_demotion
    assert m.counters[1].demotions == 1


def test_starving_threshold():
    m = MetricsCollector()
    m.note_hungry(1, 0.0)
    m.note_hungry(2, 90.0)
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


def build_monitor(strict=True):
    topo = DynamicTopology(radio_range=1.5)
    for i, p in enumerate(line_positions(3, 1.0)):
        topo.add_node(i, p)
    harnesses = {i: StubHarness() for i in range(3)}
    return topo, harnesses, SafetyMonitor(topo, harnesses, strict=strict)


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
    safety under the default ``strict_safety``."""
    with ProcessPoolExecutor(max_workers=1) as pool:
        with pytest.raises(SafetyViolation) as raised:
            pool.submit(_violate_in_worker).result()
    assert (raised.value.node_a, raised.value.node_b) == (1, 0)
    assert raised.value.time == 5.0


def test_monitor_allows_distance_two_eaters():
    topo, harnesses, monitor = build_monitor()
    harnesses[0].state = NodeState.EATING
    harnesses[2].state = NodeState.EATING
    monitor.note_eating_start(2, time=5.0)  # 0 and 2 are not neighbors
    assert monitor.checks_performed == 1


def test_monitor_nonstrict_records():
    topo, harnesses, monitor = build_monitor(strict=False)
    harnesses[0].state = NodeState.EATING
    harnesses[1].state = NodeState.EATING
    monitor.note_eating_start(1, time=5.0)
    assert len(monitor.violations) == 1
    assert monitor.violations[0].time == 5.0


def test_monitor_link_event_check():
    topo, harnesses, monitor = build_monitor(strict=False)
    harnesses[1].state = NodeState.EATING
    harnesses[2].state = NodeState.EATING
    monitor.on_link_event("up", 1, 2, time=7.0)
    assert len(monitor.violations) == 1
    monitor.on_link_event("down", 1, 2, time=8.0)  # downs are ignored
    assert len(monitor.violations) == 1


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


def test_think_clears_demotion_flag_for_the_next_episode():
    m = MetricsCollector()
    m.note_hungry(1, 0.0)
    m.note_eat_start(1, 2.0)
    m.note_demotion(1, 5.0)
    # The demoted node gives up and thinks instead of re-entering; the
    # *next* hungry episode is a fresh one, not an after-demotion retry.
    m.note_think(1, 6.0)
    m.note_hungry(1, 10.0)
    m.note_eat_start(1, 12.0)
    assert [s.after_demotion for s in m.samples] == [False, False]


def test_note_crash_clears_live_state():
    m = MetricsCollector()
    m.note_hungry(2, 0.0)
    m.note_crash(2, 5.0)
    assert m.crashed == {2: 5.0}
    assert 2 not in m.hungry_nodes()
    assert m.starving(now=100.0, threshold=10.0) == []


def test_note_crash_clears_pending_demotion():
    m = MetricsCollector()
    m.note_hungry(3, 0.0)
    m.note_eat_start(3, 1.0)
    m.note_demotion(3, 2.0)
    m.note_crash(3, 3.0)
    # A dead node's half-open demotion episode never flags a later
    # sample (e.g. if node ids were ever reused by a restart model).
    m.note_hungry(3, 10.0)
    m.note_eat_start(3, 11.0)
    assert m.samples[-1].after_demotion is False
