"""Tests for the sharded engine: partitioning, lookahead, equivalence.

The load-bearing guarantees: multi-shard results are independent of
the number of forked workers hosting the shards (one worker per CPU,
so the tests pin the CPU count to 1 and 2), per-shard invariant
monitors preserve the verdicts the unsharded monitors reach, and an
exception raised in a worker reaches the coordinator as itself.
"""

import dataclasses
import json
import multiprocessing

import pytest

from repro.errors import ConfigurationError
from repro.explore.monitors import MonitorSuite, build_monitors
from repro.obs.openmetrics import render_openmetrics
from repro.net.geometry import Point, line_positions
from repro.runtime.simulation import ScenarioConfig, Simulation, peak_rss_kb
from repro.sim.clock import TimeBounds
from repro.sim.engine import Simulator
from repro.sim.partition import (
    HALO_EPSILON,
    ShardContext,
    build_partition,
    conservative_lookahead,
    halo_width,
)
from repro.sim import sharded
from repro.sim.sharded import ShardedEngine

SAFETY_SPECS = [
    {"name": "exclusion", "params": {}},
    {"name": "fork-uniqueness", "params": {}},
    {"name": "priority", "params": {}},
]


def _line_config(n=8, algorithm="alg2", seed=3, **extra):
    return ScenarioConfig(
        positions=line_positions(n, spacing=1.0),
        radio_range=1.1,
        algorithm=algorithm,
        seed=seed,
        **extra,
    )


def _on_cpus(monkeypatch, cpus):
    """Pin the CPU count the engine derives its worker count from."""
    monkeypatch.setattr(sharded.os, "cpu_count", lambda: cpus)


def _run_on_cpus(config, until, cpus, monkeypatch, num_shards=2,
                 **engine_args):
    _on_cpus(monkeypatch, cpus)
    engine = ShardedEngine(config, num_shards=num_shards, **engine_args)
    assert engine.workers == cpus
    return engine.run(until=until)


# ----------------------------------------------------------------------
# Partition geometry
# ----------------------------------------------------------------------


def test_build_partition_splits_longer_axis():
    positions = [Point(float(i), 0.0) for i in range(8)]
    partition = build_partition(positions, 2)
    assert partition.axis == 0
    assert partition.cuts == (3.5,)
    owners = [partition.shard_of(p) for p in positions]
    assert owners == [0, 0, 0, 0, 1, 1, 1, 1]


def test_build_partition_vertical_axis():
    positions = [Point(0.0, float(i)) for i in range(6)]
    partition = build_partition(positions, 3)
    assert partition.axis == 1
    assert [partition.shard_of(p) for p in positions] == [0, 0, 1, 1, 2, 2]


def test_build_partition_validates_bounds():
    positions = [Point(float(i), 0.0) for i in range(4)]
    with pytest.raises(ConfigurationError):
        build_partition(positions, 0)
    with pytest.raises(ConfigurationError):
        build_partition(positions, 5)
    with pytest.raises(ConfigurationError):
        build_partition([], 1)


def test_conservative_lookahead_static():
    bounds = TimeBounds(nu=1.0)
    assert conservative_lookahead(bounds) == bounds.min_message_delay


def test_conservative_lookahead_mobility_cap():
    bounds = TimeBounds(nu=1.0)
    # radio 1.1, speed 2.0: the mobility cap 1.1/(2*2.0) = 0.275 binds.
    capped = conservative_lookahead(bounds, radio_range=1.1, max_speed=2.0)
    assert capped == pytest.approx(0.275)
    # Slow movers leave the message bound binding.
    slow = conservative_lookahead(bounds, radio_range=1.1, max_speed=0.1)
    assert slow == bounds.min_message_delay


def test_halo_width_covers_worst_case_approach():
    lookahead = 0.5
    width = halo_width(1.1, 1.2, lookahead)
    assert width == pytest.approx(1.1 + 2 * 1.2 * lookahead + HALO_EPSILON)


# ----------------------------------------------------------------------
# Engine satellites: wall-clock stats, ingest, safe horizon
# ----------------------------------------------------------------------


def test_simulator_stats_include_wall_rates():
    sim = Simulator()
    sim.schedule_at(1.0, lambda: None)
    sim.run(until=2.0)
    stats = sim.stats()
    assert stats["executed_events"] == 1
    assert stats["wall_time_s"] > 0.0
    assert stats["events_per_sec"] > 0.0


def test_simulator_ingest_respects_now_clamp():
    sim = Simulator()
    seen = []
    sim.schedule_at(5.0, lambda: None)
    sim.run(until=5.0)
    # A barrier injection at/before now is clamped to now, not dropped.
    count = sim.ingest([(3.0, seen.append, ("late",)), (7.0, seen.append, ("ok",))])
    assert count == 2
    sim.run(until=10.0)
    assert seen == ["late", "ok"]


def test_simulator_safe_horizon_caps_run():
    sim = Simulator()
    ran = []
    sim.schedule_at(1.0, ran.append, 1)
    sim.schedule_at(9.0, ran.append, 9)
    sim.set_safe_horizon(5.0)
    sim.run(until=20.0)
    assert ran == [1]
    assert sim.now == 5.0
    sim.set_safe_horizon(None)
    sim.run(until=20.0)
    assert ran == [1, 9]


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


# ----------------------------------------------------------------------
# Multi-shard behavior
# ----------------------------------------------------------------------


def test_multi_shard_run_reaches_cs_across_boundary():
    engine = ShardedEngine(_line_config(), num_shards=2)
    result = engine.run(until=60.0)
    assert result.cs_entries > 0
    assert engine.windows > 0
    assert result.engine["num_shards"] == 2
    assert len(result.engine["per_shard"]) == 2
    # The boundary pair (3, 4) straddles the cut; both sides must make
    # progress, which only happens when cross-shard mail flows.
    per_node = result.metrics.counters
    assert per_node[3].cs_entries > 0
    assert per_node[4].cs_entries > 0


@pytest.mark.parametrize("n,num_shards,cpus", [
    (8, 2, (1, 2)),
    # two hosts per child against one worker per shard
    (16, 4, (2, 4)),
], ids=["2-shards", "4-shards-grouped"])
def test_multi_shard_results_independent_of_worker_count(
    monkeypatch, n, num_shards, cpus
):
    reports = [
        _run_on_cpus(_line_config(n=n), 60.0, count, monkeypatch,
                     num_shards=num_shards)
        .report().to_json()
        for count in cpus
    ]
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["response"]["cs_entries"] > 0


def test_multi_shard_mobility_worker_independent(monkeypatch):
    from repro.mobility.waypoint import RandomWaypoint

    def factory(node_id):
        if node_id < 3:
            return RandomWaypoint(
                8.0, 2.0, speed_range=(0.4, 1.2), pause_range=(1.0, 4.0)
            )
        return None

    def cfg():
        return _line_config(
            mobility_factory=factory, delta_override=7
        )

    reports = [
        _run_on_cpus(cfg(), 40.0, cpus, monkeypatch, max_speed=1.2)
        .report().to_json()
        for cpus in (1, 2)
    ]
    assert reports[0] == reports[1]
    data = json.loads(reports[0])
    assert data["response"]["cs_entries"] > 0


def test_multi_shard_resources_and_rates_populated():
    result = ShardedEngine(_line_config(), num_shards=2).run(until=30.0)
    assert result.resources["wall_time_s"] > 0.0
    assert result.resources["events_per_sec"] > 0.0
    assert result.engine["events_per_sec"] > 0.0
    rss = result.resources["peak_rss_kb"]
    assert rss is None or rss > 0


def test_multi_shard_crash_stays_local_to_owner():
    config = _line_config(crashes=[(15.0, 3)])
    result = ShardedEngine(config, num_shards=2).run(until=60.0)
    assert result.metrics.counters[3].cs_entries >= 0
    assert 3 in result.metrics.crashed
    # The survivor side keeps making progress past the crash.
    assert result.cs_entries > 0


# ----------------------------------------------------------------------
# Monitor verdict preservation
# ----------------------------------------------------------------------


def test_clean_run_stays_clean_under_sharding():
    engine = ShardedEngine(
        _line_config(), num_shards=2, monitor_specs=SAFETY_SPECS
    )
    result = engine.run(until=60.0)
    assert engine.violations == []
    assert result.cs_entries > 0


def test_ablation_violation_preserved_under_sharding():
    """alg2-nonotify's stale-priority bug is caught per-shard too.

    The violating interaction (a permanently-thinking node holding a
    stale priority over a hungry neighbor) occurs on pairs interior to
    a shard, so the per-shard monitor must reach the same verdict the
    global monitor does.
    """
    specs = SAFETY_SPECS + [
        {"name": "stale-priority", "params": {"bound": 3.0}}
    ]
    hunger = {
        node: [round(1.0 + node * 0.7 + k * 5.0, 3) for k in range(12)]
        for node in (0, 2)
    }

    def cfg():
        return ScenarioConfig(
            positions=line_positions(4, spacing=1.0),
            radio_range=1.1,
            algorithm="alg2-nonotify",
            seed=1,
            scripted_hunger=hunger,
        )

    simulation = Simulation(cfg())
    suite = MonitorSuite(build_monitors(specs))
    suite.attach(simulation)
    simulation.run(until=60.0)
    suite.finalize()
    engine = ShardedEngine(cfg(), num_shards=2, monitor_specs=specs)
    engine.run(until=60.0)
    assert suite.violation.monitor == "stale-priority"
    assert [v["monitor"] for v in engine.violations] == ["stale-priority"]


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "algorithm", ["oracle", "global-oracle", "token-mutex", "alg1-random"]
)
def test_global_state_algorithms_rejected(algorithm):
    with pytest.raises(ConfigurationError):
        ShardedEngine(_line_config(algorithm=algorithm), num_shards=2)


def test_callable_algorithm_rejected():
    def factory(ctx):  # pragma: no cover - never invoked
        raise AssertionError

    with pytest.raises(ConfigurationError):
        ShardedEngine(_line_config(algorithm=factory), num_shards=2)


def test_mobility_requires_max_speed():
    from repro.mobility.waypoint import RandomWaypoint

    config = _line_config(
        mobility_factory=lambda nid: RandomWaypoint(8.0, 2.0) if nid == 0 else None,
        delta_override=7,
    )
    with pytest.raises(ConfigurationError):
        ShardedEngine(config, num_shards=2)


@pytest.mark.parametrize("num_shards", [0, 1])
def test_fewer_than_two_shards_rejected(num_shards):
    with pytest.raises(ConfigurationError, match="num_shards must be >= 2"):
        ShardedEngine(_line_config(), num_shards=num_shards)


def test_more_shards_than_nodes_rejected():
    with pytest.raises(ConfigurationError):
        ShardedEngine(_line_config(n=4), num_shards=5)


def test_platform_without_fork_rejected(monkeypatch):
    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(sharded.multiprocessing, "get_context", no_fork)
    with pytest.raises(ConfigurationError, match="fork"):
        ShardedEngine(_line_config(), num_shards=2)


def test_worker_count_is_shards_capped_by_cpus(monkeypatch):
    for cpus, workers in ((1, 1), (2, 2), (8, 3)):
        _on_cpus(monkeypatch, cpus)
        engine = ShardedEngine(_line_config(), num_shards=3)
        assert engine.workers == workers
        assert sorted(sum(engine._shard_groups(), [])) == [0, 1, 2]


@pytest.mark.parametrize("cpus", [1, 2])
def test_worker_exception_reaches_coordinator_as_itself(monkeypatch, cpus):
    """An unknown monitor fails while a child builds its shard hosts:
    the coordinator raises that ``ConfigurationError`` (not a reset
    pipe), and every forked worker is stopped and reaped."""
    _on_cpus(monkeypatch, cpus)
    engine = ShardedEngine(
        _line_config(n=12), num_shards=2,
        monitor_specs=[{"name": "no-such-monitor"}],
    )
    with pytest.raises(ConfigurationError, match="no-such-monitor"):
        engine.run(until=20.0)
    assert multiprocessing.active_children() == []


def test_worker_exception_mid_run_reaches_coordinator(monkeypatch):
    """A failure inside a window, after both workers have replied to
    earlier windows, surfaces with its own type too."""
    advance = sharded._ShardHost.advance

    def failing_advance(host, horizon, inbound, ghost_updates):
        if host.context.shard_id == 1 and horizon > 10.0:
            raise ZeroDivisionError("shard 1 failed at the barrier")
        return advance(host, horizon, inbound, ghost_updates)

    monkeypatch.setattr(sharded._ShardHost, "advance", failing_advance)
    _on_cpus(monkeypatch, 2)
    with pytest.raises(ZeroDivisionError, match="shard 1 failed"):
        ShardedEngine(_line_config(), num_shards=2).run(until=30.0)
    assert multiprocessing.active_children() == []


def test_coloring_algorithms_get_global_coloring():
    engine = ShardedEngine(
        _line_config(algorithm="choy-singh"), num_shards=2
    )
    assert engine._config.initial_colors is not None
    result = engine.run(until=60.0)
    assert result.cs_entries > 0


# ----------------------------------------------------------------------
# CLI and telemetry
# ----------------------------------------------------------------------


def test_cli_run_accepts_shards(capsys):
    from repro.cli import main

    assert main([
        "run", "--topology", "line:8", "--algorithm", "alg2",
        "--until", "30", "--shards", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "cs entries" in out.lower() or "alg2" in out


def test_multi_shard_probes_merge_with_honest_extrema(monkeypatch):
    """Coordinator probes are an instrument-aware merge of the shard
    registries: counters sum, histogram min/max survive (a naive
    numeric merge would sum them)."""
    per_shard = []
    merge = ShardedEngine._merge

    def recording_merge(engine, payloads, rss_total, threshold):
        per_shard.extend(payloads[k]["probes"] for k in sorted(payloads))
        return merge(engine, payloads, rss_total, threshold)

    monkeypatch.setattr(ShardedEngine, "_merge", recording_merge)
    result = ShardedEngine(
        _line_config(n=12, telemetry=True), num_shards=2
    ).run(until=60.0)
    assert len(per_shard) == 2
    merged = result.probes
    name = "fork.grant_latency"
    with_samples = [s[name] for s in per_shard if s[name]["count"]]
    assert with_samples, "expected grant-latency samples on some shard"
    assert merged[name]["count"] == sum(c["count"] for c in with_samples)
    assert merged[name]["min"] == min(c["min"] for c in with_samples)
    assert merged[name]["max"] == max(c["max"] for c in with_samples)
    counter = "alg2.notifications"
    assert merged[counter]["value"] == sum(s[counter]["value"] for s in per_shard)
    assert "shard_probes" not in result.resources


def test_multi_shard_merged_probes_worker_independent(monkeypatch):
    one, two = (
        _run_on_cpus(_line_config(n=12, telemetry=True), 60.0, cpus,
                     monkeypatch)
        for cpus in (1, 2)
    )
    assert one.probes == two.probes


def test_sharded_run_exports_its_merged_probes():
    """One OpenMetrics view for every run: a sharded run exports its
    merged ``probes`` block, unlabeled, like a plain run."""
    result = ShardedEngine(
        _line_config(n=12, telemetry=True), num_shards=2
    ).run(until=40.0)
    assert result.probes
    assert result.openmetrics() == render_openmetrics(result.probes)
    assert 'shard="' not in result.openmetrics()


def test_telemetry_off_sharded_run_has_no_probe_plane():
    result = ShardedEngine(_line_config(), num_shards=2).run(until=30.0)
    assert result.probes == {}
