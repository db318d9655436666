"""ScenarioConfig serialization (JSON-friendly dicts).

Lets experiment definitions live in files and travel between the CLI,
notebooks and the benchmark harness.  Only declarative scenarios
round-trip: configs carrying callables (custom algorithm entries or
mobility factories) serialize their *declarative* part and re-attach
behavior by name.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import ConfigurationError
from repro.mobility import GaussMarkov, RandomWalk, RandomWaypoint
from repro.mobility.trace import ScriptedMobility, ScriptedMove
from repro.net.geometry import Point
from repro.runtime.simulation import ScenarioConfig
from repro.sim.clock import TimeBounds

#: Declarative mobility specs: name -> factory(params) -> model-builder.
_MOBILITY_KINDS = {
    # Exact, repeatable movement: {"moves": [[time, x, y, speed], ...]}.
    # Serializable (unlike a hand-built mobility_factory), which is what
    # lets exploration repro files carry Figure 6-style scenarios.
    "scripted": lambda p: ScriptedMobility(
        [ScriptedMove(float(t), Point(float(x), float(y)), float(s))
         for t, x, y, s in p["moves"]]
    ),
    "waypoint": lambda p: RandomWaypoint(
        p["width"], p["height"],
        speed_range=tuple(p.get("speed_range", (0.5, 1.5))),
        pause_range=tuple(p.get("pause_range", (1.0, 5.0))),
    ),
    "walk": lambda p: RandomWalk(
        p["width"], p["height"],
        hop_range=tuple(p.get("hop_range", (0.5, 1.5))),
        speed=p.get("speed", 1.0),
        pause_range=tuple(p.get("pause_range", (1.0, 5.0))),
    ),
    "gauss-markov": lambda p: GaussMarkov(
        p["width"], p["height"],
        mean_speed=p.get("mean_speed", 1.0),
        alpha=p.get("alpha", 0.75),
    ),
}


def config_to_dict(config: ScenarioConfig) -> Dict[str, Any]:
    """Serialize the declarative part of a scenario."""
    if callable(config.algorithm):
        raise ConfigurationError(
            "configs with callable algorithm entries do not serialize"
        )
    data: Dict[str, Any] = {
        "positions": [[p.x, p.y] for p in config.positions],
        "radio_range": config.radio_range,
        "algorithm": config.algorithm,
        "seed": config.seed,
        "bounds": {
            "nu": config.bounds.nu,
            "tau": config.bounds.tau,
            "min_delay_fraction": config.bounds.min_delay_fraction,
        },
        "think_range": list(config.think_range),
        "crashes": [[t, n] for t, n in config.crashes],
        "trace": config.trace,
        "strict_safety": config.strict_safety,
        "delta_override": config.delta_override,
        "telemetry": config.telemetry,
        "watchdog": config.watchdog,
    }
    if config.scripted_hunger is not None:
        data["scripted_hunger"] = {
            str(node): list(times)
            for node, times in config.scripted_hunger.items()
        }
    if config.scripted_eating is not None:
        data["scripted_eating"] = {
            str(node): list(durations)
            for node, durations in config.scripted_eating.items()
        }
    if config.link_script is not None:
        data["link_script"] = [
            [float(t), str(op), int(a), int(b), int(mover)]
            for t, op, a, b, mover in config.link_script
        ]
    if config.initial_colors is not None:
        data["initial_colors"] = {
            str(node): color for node, color in config.initial_colors.items()
        }
    return data


def config_from_dict(data: Dict[str, Any]) -> ScenarioConfig:
    """Rebuild a scenario from its serialized form.

    A ``mobility`` block of the form
    ``{"kind": "waypoint", "nodes": [0, 3], "params": {...}}`` attaches
    the named model to the listed nodes.
    """
    try:
        positions = [Point(float(x), float(y)) for x, y in data["positions"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad positions in config: {exc}") from exc
    bounds_data = data.get("bounds", {})
    mobility_factory = None
    mobility = data.get("mobility")
    if mobility is not None:
        kind = mobility.get("kind")
        builder = _MOBILITY_KINDS.get(kind)
        if builder is None:
            raise ConfigurationError(
                f"unknown mobility kind {kind!r}; "
                f"available: {sorted(_MOBILITY_KINDS)}"
            )
        nodes = set(mobility.get("nodes", []))
        params = mobility.get("params", {})

        def mobility_factory(node_id, _nodes=nodes, _builder=builder,
                             _params=params):
            return _builder(_params) if node_id in _nodes else None

    scripted = data.get("scripted_hunger")
    scripted_eating = data.get("scripted_eating")
    link_script = data.get("link_script")
    initial_colors = data.get("initial_colors")
    return ScenarioConfig(
        positions=positions,
        radio_range=data.get("radio_range", 1.0),
        algorithm=data.get("algorithm", "alg2"),
        seed=data.get("seed", 0),
        bounds=TimeBounds(
            nu=bounds_data.get("nu", 1.0),
            tau=bounds_data.get("tau", 1.0),
            min_delay_fraction=bounds_data.get("min_delay_fraction", 0.5),
        ),
        think_range=tuple(data.get("think_range", (1.0, 5.0))),
        scripted_hunger=(
            {int(node): list(times) for node, times in scripted.items()}
            if scripted is not None
            else None
        ),
        scripted_eating=(
            {
                int(node): [float(d) for d in durations]
                for node, durations in scripted_eating.items()
            }
            if scripted_eating is not None
            else None
        ),
        link_script=(
            [[float(t), str(op), int(a), int(b), int(mover)]
             for t, op, a, b, mover in link_script]
            if link_script is not None
            else None
        ),
        mobility_factory=mobility_factory,
        crashes=[(float(t), int(n)) for t, n in data.get("crashes", [])],
        trace=data.get("trace", False),
        strict_safety=data.get("strict_safety", True),
        initial_colors=(
            {int(node): int(color) for node, color in initial_colors.items()}
            if initial_colors is not None
            else None
        ),
        delta_override=data.get("delta_override"),
        telemetry=data.get("telemetry", False),
        watchdog=data.get("watchdog"),
    )
