"""Tests for protocol probes: wiring, instruments, end-to-end population."""

import re
from pathlib import Path

import repro
from repro.mobility import RandomWaypoint
from repro.net.geometry import grid_positions, line_positions
from repro.obs import probes as probes_module
from repro.obs.probes import ProtocolProbes, build_probes
from repro.obs.registry import NULL_REGISTRY, MetricRegistry
from repro.runtime.simulation import ScenarioConfig, Simulation


def test_build_probes_follows_none_when_off():
    assert build_probes(None) is None
    assert build_probes(NULL_REGISTRY) is None
    live = build_probes(MetricRegistry())
    assert isinstance(live, ProtocolProbes)


def test_probe_methods_update_the_right_instruments():
    registry = MetricRegistry()
    probes = ProtocolProbes(registry)

    probes.note_doorway_cross("ADr")
    probes.note_doorway_cross("ADr")
    probes.note_doorway_exit("ADr", 1.5)
    probes.note_fork_request()
    probes.note_fork_grant()
    probes.note_fork_grant_latency(0.75)
    probes.note_recolor_begin()
    probes.note_recolor_round()
    probes.note_recolor_round()
    probes.note_recolor_done(rounds=2, duration=8.0)
    probes.note_notification()
    probes.note_switch("exit_cs")
    probes.note_switch("notified")
    probes.note_switch("exit_cs")

    snap = registry.snapshot()
    assert snap["doorway.cross"]["by_key"] == {"ADr": 2}
    assert snap["doorway.occupancy"]["by_key"] == {"ADr": 1}
    assert snap["doorway.occupancy"]["high_water_by_key"] == {"ADr": 2}
    assert snap["doorway.time_behind"]["by_key"]["ADr"]["mean"] == 1.5
    assert snap["fork.requests"]["value"] == 1
    assert snap["fork.grants"]["value"] == 1
    assert snap["fork.grant_latency"]["mean"] == 0.75
    assert snap["recolor.sessions"]["value"] == 1
    assert snap["recolor.rounds"]["value"] == 2
    assert snap["recolor.session_rounds"]["mean"] == 2.0
    assert snap["recolor.session_duration"]["mean"] == 8.0
    assert snap["alg2.notifications"]["value"] == 1
    assert snap["alg2.switches"]["by_key"] == {"exit_cs": 2, "notified": 1}


def test_catalogue_lists_every_instrument_with_its_kind():
    rows = dict(re.findall(
        r"^``([a-z0-9_.]+)``\s+(counter|gauge|histogram)\b",
        probes_module.__doc__, re.MULTILINE,
    ))
    snapshot = ProtocolProbes(MetricRegistry()).registry.snapshot()
    assert {name: snap["kind"] for name, snap in snapshot.items()} == {
        name: rows.get(name) for name in snapshot
    }
    # The other rows are recorded outside ProtocolProbes; each must
    # still be a live instrument name somewhere in the package.
    source = "".join(
        path.read_text() for path in Path(repro.__file__).parent.rglob("*.py")
        if path.name != "probes.py"
    )
    for name in sorted(set(rows) - set(snapshot)):
        assert f'"{name}"' in source, name


def test_mobility_update_reasons_match_the_engine_counters():
    config = ScenarioConfig(
        positions=grid_positions(16, spacing=1.0), radio_range=1.1,
        algorithm="alg2", seed=2, telemetry=True, delta_override=15,
        mobility_factory=lambda node_id: RandomWaypoint(
            4.0, 4.0, speed_range=(0.5, 1.2), pause_range=(0.5, 2.0)
        ) if node_id < 4 else None,
        crashes=[(12.3, 0), (17.9, 1)],
    )
    sim = Simulation(config)
    result = sim.run(until=60.0)
    updates = result.probes["mobility.updates"]["by_key"]
    stats = sim.mobility.stats()
    assert sum(updates.values()) == stats["position_updates"]
    assert updates.get("arrival", 0) == stats["arrivals"] > 0
    assert updates.get("horizon", 0) == stats["horizon_events"] > 0
    assert updates.get("teleport", 0) == stats["teleports"]
    assert updates["freeze"] >= 1  # a crash caught a mover mid-flight
    assert set(updates) <= {"arrival", "horizon", "teleport", "freeze"}
    assert result.probes["mobility.crossings"]["value"] == (
        stats["crossings_scheduled"]
    )


def _run(algorithm, telemetry=True, until=120.0, n=6):
    sim = Simulation(ScenarioConfig(
        positions=line_positions(n, spacing=1.0),
        radio_range=1.1,
        algorithm=algorithm,
        seed=11,
        telemetry=telemetry,
    ))
    result = sim.run(until=until)
    return sim, result


def test_alg2_run_populates_fork_and_priority_probes():
    sim, result = _run("alg2")
    snap = sim.registry.snapshot()
    assert snap["fork.requests"]["value"] > 0
    assert snap["fork.grants"]["value"] > 0
    assert snap["fork.grant_latency"]["count"] > 0
    # Every grant latency is a nonnegative virtual-time delta.
    assert snap["fork.grant_latency"]["min"] >= 0.0
    assert snap["alg2.notifications"]["value"] > 0
    assert snap["alg2.switches"]["value"] > 0
    # The snapshot lands in the result too.
    assert result.probes == snap


def test_alg1_run_populates_doorway_and_recoloring_probes():
    sim, _ = _run("alg1-greedy", until=200.0)
    snap = sim.registry.snapshot()
    assert snap["doorway.cross"]["value"] > 0
    assert snap["doorway.exit"]["value"] > 0
    assert snap["doorway.time_behind"]["count"] > 0
    # Doorways are Algorithm 1's machinery; crossings are keyed by the
    # doorway name and every crossing tracks occupancy high-water.
    assert snap["doorway.occupancy"]["high_water_by_key"]
    assert snap["recolor.sessions"]["value"] > 0
    assert snap["recolor.rounds"]["value"] > 0
    assert snap["recolor.session_rounds"]["count"] > 0
    assert snap["recolor.session_duration"]["min"] >= 0.0


def test_probes_never_perturb_the_protocol():
    _, with_probes = _run("alg2", telemetry=True)
    _, without = _run("alg2", telemetry=False)
    assert with_probes.cs_entries == without.cs_entries
    assert with_probes.messages_sent == without.messages_sent
    assert with_probes.response_times == without.response_times
    assert without.probes == {}


def _attr_values(obj):
    """Attribute values of ``obj``, covering both ``__dict__`` and the
    ``__slots__`` laid down anywhere in its MRO (the hot per-node
    objects have no ``__dict__``)."""
    seen = set()
    for cls in type(obj).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if slot not in seen:
                seen.add(slot)
                try:
                    yield getattr(obj, slot)
                except AttributeError:
                    pass
    yield from getattr(obj, "__dict__", {}).values()


def test_telemetry_off_leaves_probe_handles_none():
    """Zero cost when off: with telemetry disabled no instrumentation
    object exists on a hot path, so the only residual cost is one
    ``is not None`` test per probe site."""
    sim, _ = _run("alg2", telemetry=False, until=10.0)
    assert sim.registry is None
    assert sim.probes is None
    for harness in sim.harnesses.values():
        assert harness.probes is None
        assert getattr(harness.algorithm, "_probes", None) is None
        # Sub-components picked their handle up from the harness too.
        for attr in _attr_values(harness.algorithm):
            if hasattr(attr, "_probes"):
                assert attr._probes is None, type(attr).__name__
