"""Tests for the starvation watchdog: unit semantics and crash scenarios."""

import pytest

from repro.metrics.collector import MetricsCollector
from repro.net.geometry import line_positions
from repro.obs.registry import MetricRegistry
from repro.obs.watchdog import PERIOD, StarvationWatchdog
from repro.runtime.simulation import ScenarioConfig, Simulation
from repro.sim.engine import Simulator


def _advance(sim, until):
    # Bounded run: the started watchdog reschedules itself forever, so
    # an unbounded drain would never terminate.
    sim.schedule_at(until, lambda: None)
    sim.run(until=until)


def test_threshold_must_be_positive():
    sim, metrics = Simulator(), MetricsCollector()
    with pytest.raises(ValueError):
        StarvationWatchdog(sim, metrics, threshold=0.0)


def test_warns_once_per_hungry_interval():
    sim, metrics = Simulator(), MetricsCollector()
    dog = StarvationWatchdog(sim, metrics, threshold=10.0)
    metrics.note_fx(0.0, "hungry", 1)
    _advance(sim, 50.0)

    fresh = dog._check(sim.now)
    assert [w.node for w in fresh] == [1]
    assert fresh[0].hungry_since == 0.0
    assert fresh[0].duration == 50.0
    # The same interval never warns twice.
    assert dog._check(sim.now) == []

    # A new hungry interval warns again.
    metrics.note_fx(50.0, "enter", 1)
    metrics.note_fx(51.0, "exit", 1)
    metrics.note_fx(51.0, "hungry", 1)
    _advance(sim, 100.0)
    again = dog._check(sim.now)
    assert [w.node for w in again] == [1]
    assert again[0].hungry_since == 51.0
    assert len(dog.warnings) == 2


def test_crashed_nodes_are_never_reported():
    sim, metrics = Simulator(), MetricsCollector()
    dog = StarvationWatchdog(sim, metrics, threshold=10.0)
    metrics.note_fx(0.0, "hungry", 1)
    metrics.note_fx(5.0, "crashed", 1)
    _advance(sim, 50.0)
    assert dog._check(sim.now) == []


def test_periodic_ticks_and_registry_counter():
    sim, metrics = Simulator(), MetricsCollector()
    registry = MetricRegistry()
    dog = StarvationWatchdog(sim, metrics, threshold=10.0, registry=registry)
    metrics.note_fx(0.0, "hungry", 2)
    dog.start()
    _advance(sim, 30.0)
    # Checks run every PERIOD; the first one strictly past the
    # threshold warns.
    assert [(w.node, w.time) for w in dog.warnings] == [(2, 3 * PERIOD)]
    assert registry.counter("watchdog.warnings").value == 1
    assert dog.warning_dicts()[0]["kind"] == "starvation"


def test_warning_to_dict_round_trips_through_json():
    import json

    sim, metrics = Simulator(), MetricsCollector()
    dog = StarvationWatchdog(sim, metrics, threshold=1.0)
    metrics.note_fx(2.0, "hungry", 3)
    _advance(sim, 10.0)
    dog._check(sim.now)
    (payload,) = dog.warning_dicts()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["duration"] == payload["time"] - payload["hungry_since"]


# ----------------------------------------------------------------------
# End to end: crashed fork holder starves neighbors; oracle stays silent
# ----------------------------------------------------------------------


def _crash_scenario(algorithm):
    return ScenarioConfig(
        positions=line_positions(8, spacing=1.0),
        radio_range=1.1,
        algorithm=algorithm,
        seed=0,
        crashes=[(30.0, 4)],
        telemetry=True,
        watchdog=25.0,
    )


def test_crashed_fork_holder_fires_structured_warning():
    result = Simulation(_crash_scenario("alg2")).run(until=300.0)
    assert result.watchdog_warnings, "neighbors of the crashed node starve"
    warned = {w["node"] for w in result.watchdog_warnings}
    assert 4 not in warned, "the crashed node itself is not 'starving'"
    # Starvation stays local: a direct neighbor of the crashed fork
    # holder is affected, and nothing beyond distance 2 on the line.
    assert any(abs(node - 4) == 1 for node in warned)
    assert all(abs(node - 4) <= 2 for node in warned)
    for warning in result.watchdog_warnings:
        assert warning["kind"] == "starvation"
        assert warning["duration"] >= 25.0
    # The warning count also lands in the probe metrics.
    assert result.probes["watchdog.warnings"]["value"] == len(
        result.watchdog_warnings
    )


def test_oracle_baseline_is_silent_under_the_same_crash():
    result = Simulation(_crash_scenario("oracle")).run(until=300.0)
    assert result.watchdog_warnings == []


def test_watchdog_does_not_perturb_protocol_behavior():
    with_dog = Simulation(_crash_scenario("alg2")).run(until=300.0)
    config = _crash_scenario("alg2")
    config.watchdog = None
    without = Simulation(config).run(until=300.0)
    assert with_dog.cs_entries == without.cs_entries
    assert with_dog.messages_sent == without.messages_sent
    assert with_dog.response_times == without.response_times
