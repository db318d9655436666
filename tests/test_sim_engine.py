"""Unit tests for the discrete-event engine."""

import pytest

from oracles.heap_queue import heap_simulator
from repro.errors import SimulationError
from repro.sim import EventPriority, Simulator, TimeBounds, Timer
from repro.sim.rng import RandomSource


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_run_in_priority_then_insertion_order():
    sim = Simulator()
    order = []
    sim.schedule(1.0, order.append, "normal-1")
    sim.schedule(1.0, order.append, "monitor", priority=EventPriority.MONITOR)
    sim.schedule(1.0, order.append, "topology", priority=EventPriority.TOPOLOGY)
    sim.schedule(1.0, order.append, "normal-2")
    sim.run()
    assert order == ["topology", "normal-1", "normal-2", "monitor"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert sim.executed_events == 0


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.run(until=2.0)
    event.cancel()
    assert fired == ["x"]
    assert sim.pending_events == 0


@pytest.mark.parametrize("method", ["schedule", "schedule_at"])
def test_handle_outlives_its_event(method):
    # A handle kept past its event's firing stays dead: cancelling it
    # must not reach any event scheduled afterwards.
    sim = Simulator()
    fired = []
    a_handle = getattr(sim, method)(1.0, fired.append, "a")
    sim.run(until=2.0)
    b_handle = getattr(sim, method)(3.0, fired.append, "b")
    assert not a_handle.pending
    a_handle.cancel()
    assert not a_handle.pending
    assert b_handle.pending and sim.pending_events == 1
    sim.run(until=10.0)
    assert fired == ["a", "b"]
    assert not a_handle.pending and not b_handle.pending


def test_run_until_deadline_leaves_future_events_pending():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0
    sim.run()
    assert fired == ["early", "late"]


def test_schedule_into_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(1.0, order.append, "second")

    sim.schedule(1.0, first)
    sim.run()
    assert order == ["first", "second"]
    assert sim.now == 2.0


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def recurse():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, recurse)
    sim.run()
    assert len(errors) == 1


def test_stop_halts_execution():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    assert sim.pending_events == 1


def test_max_events_budget():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i + 1), lambda: None)
    sim.run(max_events=4)
    assert sim.executed_events == 4


def test_listener_fires_after_each_event():
    sim = Simulator()
    seen = []
    sim.add_listener(lambda s: seen.append(s.now))
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert seen == [1.0, 2.0]


def test_timer_restart_supersedes_previous_deadline():
    sim = Simulator()
    fired = []
    timer = Timer(sim, fired.append, "tick")
    timer.start(1.0)
    timer.start(3.0)
    sim.run(until=2.0)
    assert fired == []
    assert timer.pending
    sim.run()
    assert fired == ["tick"]
    assert not timer.pending


def test_timer_cancel():
    sim = Simulator()
    fired = []
    timer = Timer(sim, fired.append, "tick")
    timer.start(1.0)
    timer.cancel()
    sim.run()
    assert fired == []


def test_time_bounds_validation():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        TimeBounds(nu=0)
    with pytest.raises(ConfigurationError):
        TimeBounds(tau=-1)
    with pytest.raises(ConfigurationError):
        TimeBounds(min_delay_fraction=0)


def test_time_bounds_eating_draws_within_range():
    bounds = TimeBounds(nu=2.0, tau=3.0, min_delay_fraction=0.5)
    rng = RandomSource(7).stream("t")
    for _ in range(200):
        e = bounds.draw_eating_time(rng)
        assert 0 < e <= 3.0


def test_random_source_streams_are_independent_and_reproducible():
    a = RandomSource(42)
    b = RandomSource(42)
    assert a.stream("x").random() == b.stream("x").random()
    c = RandomSource(42)
    d = RandomSource(43)
    assert c.stream("x").random() != d.stream("x").random()
    # Distinct names give distinct streams.
    e = RandomSource(42)
    assert e.stream("x", 1).random() != e.stream("x", 2).random()


def test_stats_snapshot_tracks_counters():
    for discipline, make in (("ladder", Simulator), ("heap", heap_simulator)):
        sim = make()
        for i in range(5):
            sim.schedule_at(float(i), lambda: None)
        sim.run()
        stats = sim.stats()
        assert stats["executed_events"] == 5
        assert stats["pending_events"] == 0
        assert stats["now"] == 4.0
        sched = stats["scheduler"]
        assert sched["discipline"] == discipline
        assert sched["enqueues"] == 5
        assert sched["dequeues"] == 5
        assert sched["high_water"] >= 1
        assert "compactions" in sched


def test_mass_cancellation_triggers_compaction():
    # The ladder and the heap oracle both sweep their pending set in
    # place once cancelled shells outnumber live events.
    for make in (Simulator, heap_simulator):
        sim = make()
        handles = [sim.schedule_at(float(i), lambda: None) for i in range(200)]
        for handle in handles[:150]:
            handle.cancel()
        assert sim.stats()["scheduler"]["compactions"] >= 1
        sim.run()
        assert sim.executed_events == 50


def test_timer_restart_churn_is_bounded():
    # A deadline restarted over and over leaves one live event behind:
    # the queue's sweep drops the superseded shells as they pile up.
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    for i in range(10_000):
        timer.start(5.0 + i % 3)
        assert sim.pending_events == 1
    sched = sim.stats()["scheduler"]
    assert sched["cancelled"] == 9999
    assert sched["compactions"] >= 1
    assert sched["high_water"] <= 128
    sim.run(until=10.0)
    assert fired == [5.0 + 9999 % 3]
    assert sim.pending_events == 0



def test_simulator_stats_include_wall_rates():
    sim = Simulator()
    sim.schedule_at(1.0, lambda: None)
    sim.run(until=2.0)
    stats = sim.stats()
    assert stats["executed_events"] == 1
    assert stats["wall_time_s"] > 0.0
    assert stats["events_per_sec"] > 0.0
