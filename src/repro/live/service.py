"""The in-process live service: scenario in, recording out.

:func:`run_bus` takes the same scenario JSON dicts the exploration
campaigns use (:mod:`repro.explore.scenarios`), builds the unmodified
node stack over a :class:`~repro.live.bus.InProcessBus`, drives the
scenario's hunger, crash plan and link rows (its ``link_script`` plus
the mobility plan's teleports) on wall-clock timers through the
simulator's own scenario-event code, and returns a schema-versioned
recording that :func:`repro.live.replay.verify_recording` can check
in-sim.

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
from repro.runtime.simulation import ScenarioConfig


def scripted_link_feed(
    config: ScenarioConfig,
) -> List[Tuple[float, str, int, int, int]]:
    """Flatten a scenario's mobility plan into timed link events.

    Replays the unit-disk geometry offline on a scratch topology: each
    teleport move yields its link diff, downs before ups, one entry per
    link.  Only scripted zero-speed (teleport) moves are supported —
    continuous motion has no defined link schedule without a clock to
    integrate it against.
    """
    if config.mobility_factory is None:
        return []
    moves: List[Tuple[float, int, Point]] = []
    for block in config.mobility_factory.blocks:
        if block["kind"] != "scripted":
            raise ConfigurationError(
                f"live runs support scripted mobility only (got "
                f"{block['kind']!r})"
            )
        for node in block["nodes"]:
            for t, x, y, speed in block["params"]["moves"]:
                if float(speed) > 0.0:
                    raise ConfigurationError(
                        "live scripted moves must be teleports (speed 0); "
                        f"got speed {speed} for node {node}"
                    )
                moves.append((float(t), node, Point(float(x), float(y))))
    moves.sort(key=lambda m: (m[0], m[1]))
    scratch = DynamicTopology(radio_range=config.radio_range)
    scratch.add_nodes(enumerate(config.positions))
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
    loop = asyncio.new_event_loop()
    try:
        recorder = LiveRecorder()
        runtime = WallClockRuntime(loop, time_scale, recorder)
        if registry is None:
            registry = MetricRegistry()
        bus = InProcessBus(loop, lambda *args: nodes.channel.dispatch(*args))
        nodes = LiveNodeSet(
            config,
            runtime,
            recorder,
            bus.send,
            hosted=range(len(config.positions)),
            live_probes=LiveProbes(registry),
            probes=build_probes(registry),
        )
        runtime.start()
        nodes.drive(scripted_link_feed(config))
        t_end = runtime.run(until)
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
