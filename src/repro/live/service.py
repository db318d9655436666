"""The in-process live service: scenario in, recording out.

:func:`run_bus` takes the same scenario JSON dicts the exploration
campaigns use (:mod:`repro.explore.scenarios`), builds the unmodified
node stack over a :class:`~repro.live.bus.InProcessBus`, drives the
scenario's workload/crash/link scripts from wall-clock timers, and
returns a schema-versioned recording that
:func:`repro.live.replay.verify_recording` can check in-sim.

``time_scale`` is wall seconds per virtual unit: 0.005 compresses a
virtual-80 scenario into ~0.4 s of wall time, 1.0 runs it in real
time.  The scripted topology feed accepts teleport moves only (speed
0); a live deployment gets its churn from real membership events, and
the simulator remains the place to model continuous motion.

:func:`serve` wraps :func:`run_bus` with an OpenMetrics scrape
endpoint (the PR 8 exporter) live for the duration of the run.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

from repro.core.states import NodeState
from repro.errors import ConfigurationError
from repro.harness.config_io import config_from_dict
from repro.live.bus import InProcessBus
from repro.live.node import LiveNodeSet, LiveProbes
from repro.live.recorder import LiveRecorder, make_recording
from repro.live.runtime import WallClockRuntime
from repro.net.geometry import Point
from repro.net.topology import DynamicTopology
from repro.obs.probes import build_probes
from repro.obs.registry import MetricRegistry
from repro.runtime.app import INITIAL_DELAY_RANGE


def scripted_link_feed(
    scenario: Dict[str, Any],
) -> List[Tuple[float, str, int, int, int]]:
    """Flatten a scenario's mobility block into timed link events.

    Replays the unit-disk geometry offline on a scratch topology: each
    teleport move yields its link diff, downs before ups, one entry per
    link.  Only scripted zero-speed (teleport) moves are supported —
    continuous motion has no defined link schedule without a clock to
    integrate it against.
    """
    mobility = scenario.get("mobility")
    if mobility is None:
        return []
    if mobility.get("kind") != "scripted":
        raise ConfigurationError(
            "live runs support scripted mobility only "
            f"(got {mobility.get('kind')!r})"
        )
    moves: List[Tuple[float, int, Point]] = []
    for node in mobility.get("nodes", []):
        for t, x, y, speed in mobility.get("params", {}).get("moves", []):
            if float(speed) > 0.0:
                raise ConfigurationError(
                    "live scripted moves must be teleports (speed 0); "
                    f"got speed {speed} for node {node}"
                )
            moves.append((float(t), int(node), Point(float(x), float(y))))
    moves.sort(key=lambda m: (m[0], m[1]))
    scratch = DynamicTopology(
        radio_range=float(scenario.get("radio_range", 1.0))
    )
    scratch.add_nodes(
        (node_id, Point(float(x), float(y)))
        for node_id, (x, y) in enumerate(scenario["positions"])
    )
    feed: List[Tuple[float, str, int, int, int]] = []
    for t, node, point in moves:
        diff = scratch.set_position(node, point)
        for a, b in diff.removed:
            feed.append((t, "down", a, b, node))
        for a, b in diff.added:
            feed.append((t, "up", a, b, node))
    return feed


def run_bus(
    scenario: Dict[str, Any],
    until: float,
    time_scale: float = 0.005,
    registry: Optional[MetricRegistry] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run one scenario on the in-process bus; returns the recording."""
    config = config_from_dict(scenario)
    if config.mobility_factory is not None:
        # The factory was only built to validate the block; the live
        # feed below drives churn directly.
        config.mobility_factory = None

    loop = asyncio.new_event_loop()
    try:
        recorder = LiveRecorder()
        runtime = WallClockRuntime(loop, time_scale, recorder)
        if registry is None:
            registry = MetricRegistry()
        live_probes = LiveProbes(registry)
        protocol_probes = build_probes(registry)

        bus = InProcessBus(loop, lambda *args: nodes.channel.dispatch(*args))
        nodes = LiveNodeSet(
            config,
            runtime,
            recorder,
            bus.send,
            hosted=range(len(config.positions)),
            probes=protocol_probes,
            live_probes=live_probes,
        )
        linklayer = nodes.linklayer

        runtime.start()

        # --- workload -------------------------------------------------
        def fire_hungry(harness) -> None:
            effective = (
                not harness.crashed
                and harness.state is NodeState.THINKING
            )
            live_probes.inc_event("hungry")
            runtime.execute(
                "hungry",
                {"n": harness.node_id, "eff": bool(effective)},
                harness.become_hungry,
            )

        if config.scripted_hunger is not None:
            for node_id, times in config.scripted_hunger.items():
                harness = nodes.harnesses[node_id]
                for t in times:
                    if t < until:
                        loop.call_at(runtime.wall_at(t), fire_hungry, harness)
        else:
            # Stochastic service workload: think, get hungry, repeat.
            from repro.sim.rng import RandomSource

            workload_rng = RandomSource(config.seed)

            def arm(harness, rng, delay: float) -> None:
                t = runtime.now + delay
                if t < until:
                    loop.call_at(runtime.wall_at(t), fire_hungry, harness)

            for node_id, harness in nodes.harnesses.items():
                rng = workload_rng.stream("workload", node_id)
                harness.on_done_eating = (
                    lambda h, r=rng: arm(h, r, r.uniform(*config.think_range))
                )
                arm(harness, rng, rng.uniform(*INITIAL_DELAY_RANGE))

        # --- failures -------------------------------------------------
        def do_crash(node_id: int) -> None:
            linklayer.crash(node_id)
            nodes.harnesses[node_id].crash()
            nodes.metrics.note_crash(node_id, runtime.now)

        def fire_crash(node_id: int) -> None:
            live_probes.inc_event("crash")
            runtime.execute("crash", {"n": node_id}, do_crash, node_id)

        for t, node_id in config.crashes:
            if t < until:
                loop.call_at(runtime.wall_at(t), fire_crash, node_id)

        # --- topology feed --------------------------------------------
        def fire_link(op: str, a: int, b: int, mover: int) -> None:
            fields: Dict[str, Any] = {"a": a, "b": b}
            if op == "up":
                fields["mover"] = mover
            live_probes.inc_event(op)
            runtime.execute(
                op, fields, linklayer.apply_link_event, op, a, b, mover
            )

        for t, op, a, b, mover in scripted_link_feed(scenario):
            if t < until:
                loop.call_at(runtime.wall_at(t), fire_link, op, a, b, mover)

        # --- run ------------------------------------------------------
        loop.call_at(runtime.wall_at(until), loop.stop)
        loop.run_forever()
        runtime.stop()
        t_end = max(runtime.wall_virtual(), runtime.last_stamp)
    finally:
        loop.close()

    doc_extra: Dict[str, Any] = {
        "metrics": nodes.metrics_summary(),
        "probes": registry.snapshot(),
    }
    if extra:
        doc_extra.update(extra)
    return make_recording(
        "bus", scenario, until, t_end, time_scale, recorder.rows, doc_extra
    )


def run_bus_family(
    family: str,
    algorithm: str,
    seed: int = 0,
    time_scale: float = 0.005,
    registry: Optional[MetricRegistry] = None,
) -> Dict[str, Any]:
    """Run one named scenario family on the bus (see explore.scenarios)."""
    from repro.explore.scenarios import build_scenario

    row = build_scenario(family, algorithm, seed)
    return run_bus(
        row["scenario"],
        row["until"],
        time_scale=time_scale,
        registry=registry,
        extra={"family": row["family"], "algorithm": algorithm, "seed": seed},
    )


def serve(
    family: str,
    algorithm: str,
    seed: int = 0,
    time_scale: float = 0.05,
    host: str = "127.0.0.1",
    port: int = 9464,
    duration: Optional[float] = None,
) -> Dict[str, Any]:
    """Run a bus scenario with a live OpenMetrics scrape endpoint.

    The endpoint serves the shared registry — protocol probes plus the
    ``live.*`` family — for the duration of the run, then shuts down.
    Returns the recording, like :func:`run_bus_family`.
    """
    import threading

    from repro.explore.scenarios import build_scenario
    from repro.obs.openmetrics import build_metrics_server, render_openmetrics

    registry = MetricRegistry()
    server = build_metrics_server(
        lambda: render_openmetrics(registry.snapshot()), host=host, port=port
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        row = build_scenario(family, algorithm, seed)
        until = duration if duration is not None else row["until"]
        return run_bus(
            row["scenario"],
            until,
            time_scale=time_scale,
            registry=registry,
            extra={
                "family": row["family"],
                "algorithm": algorithm,
                "seed": seed,
            },
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
