"""Tests for power-law fitting and scenario serialization."""

import dataclasses
import json
import math
import random

import pytest

from repro.analysis.scaling import fit_power_law
from repro.errors import ConfigurationError
from repro.explore.scenarios import _FAMILIES, build_scenario
from repro.harness.config_io import config_from_dict, config_to_dict
from repro.mobility import MobilityPlan, RandomWaypoint
from repro.net.geometry import Point, line_positions
from repro.runtime.simulation import ScenarioConfig, Simulation
from repro.sim.clock import TimeBounds


# ----------------------------------------------------------------------
# Power-law fitting
# ----------------------------------------------------------------------


def test_fit_recovers_exact_power_law():
    xs = [1, 2, 4, 8, 16]
    ys = [3 * x ** 2 for x in xs]
    fit = fit_power_law(xs, ys)
    assert fit.exponent == pytest.approx(2.0)
    assert fit.coefficient == pytest.approx(3.0)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_linear_vs_constant():
    xs = [2, 4, 8, 16]
    assert fit_power_law(xs, xs).exponent == pytest.approx(1.0)
    assert fit_power_law(xs, [5, 5, 5, 5]).exponent == pytest.approx(0.0)


def test_fit_rejects_degenerate_input():
    with pytest.raises(ValueError):
        fit_power_law([1], [1])
    with pytest.raises(ValueError):
        fit_power_law([1, 2], [0, 5])  # non-positive y dropped -> 1 point
    with pytest.raises(ValueError):
        fit_power_law([3, 3], [1, 2])  # identical x
    with pytest.raises(ValueError):
        fit_power_law([1, 2], [1, 2, 3])


def test_fit_str_rendering():
    fit = fit_power_law([1, 2, 4], [2, 4, 8])
    assert "x^1.00" in str(fit)


# ----------------------------------------------------------------------
# Config serialization
# ----------------------------------------------------------------------


def sample_config():
    return ScenarioConfig(
        positions=line_positions(4, spacing=1.0),
        radio_range=1.5,
        algorithm="alg1-greedy",
        seed=9,
        bounds=TimeBounds(nu=0.5, tau=2.0, min_delay_fraction=1.0),
        think_range=(0.5, 1.5),
        watchdog=12.0,
        crashes=[(10.0, 2)],
        initial_colors={0: 0, 1: 1, 2: 0, 3: 1},
        scripted_hunger={0: [1.0, 5.0]},
        delta_override=3,
    )


def test_round_trip_preserves_fields():
    config = sample_config()
    rebuilt = config_from_dict(config_to_dict(config))
    assert rebuilt.positions == config.positions
    assert rebuilt.algorithm == config.algorithm
    assert rebuilt.seed == config.seed
    assert rebuilt.bounds == config.bounds
    assert rebuilt.think_range == config.think_range
    assert rebuilt.watchdog == config.watchdog
    assert rebuilt.crashes == config.crashes
    assert rebuilt.initial_colors == config.initial_colors
    assert rebuilt.scripted_hunger == config.scripted_hunger
    assert rebuilt.delta_override == config.delta_override


def test_config_to_dict_serializes_every_declarative_field():
    # scenario_key hashes config_to_dict, so a field it leaves out would
    # let two different scenarios share a cache key.
    config = ScenarioConfig(
        positions=line_positions(3, spacing=1.0),
        scripted_hunger={0: [1.0]},
        scripted_eating={0: [0.5]},
        link_script=[[2.0, "down", 0, 1, -1]],
        initial_colors={0: 0, 1: 1, 2: 0},
    )
    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    assert set(config_to_dict(config)) == fields - {"mobility_factory"}


def test_round_trip_through_json():
    config = sample_config()
    rebuilt = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
    assert rebuilt.positions == config.positions
    assert rebuilt.crashes == config.crashes


def test_rebuilt_config_actually_runs_identically():
    config = ScenarioConfig(
        positions=line_positions(5, spacing=1.0),
        algorithm="alg2",
        seed=4,
        think_range=(0.5, 2.0),
    )
    rebuilt = config_from_dict(config_to_dict(config))
    a = Simulation(config).run(until=60.0)
    b = Simulation(rebuilt).run(until=60.0)
    assert a.cs_entries == b.cs_entries
    assert a.messages_sent == b.messages_sent


def test_mobility_block_attaches_models():
    data = config_to_dict(
        ScenarioConfig(positions=[Point(0, 0), Point(1, 0)], algorithm="alg2")
    )
    data["mobility"] = {
        "kind": "waypoint",
        "nodes": [0],
        "params": {"width": 4.0, "height": 4.0},
    }
    config = config_from_dict(data)
    assert config.mobility_factory is not None
    assert config.mobility_factory(0) is not None
    assert config.mobility_factory(1) is None


def test_unknown_mobility_kind_rejected():
    data = config_to_dict(
        ScenarioConfig(positions=[Point(0, 0)], algorithm="alg2")
    )
    data["mobility"] = {"kind": "jetpack", "nodes": [0], "params": {}}
    with pytest.raises(ConfigurationError):
        config_from_dict(data)


def test_callable_algorithm_does_not_serialize():
    config = ScenarioConfig(
        positions=[Point(0, 0)], algorithm=lambda ctx: None
    )
    with pytest.raises(ConfigurationError):
        config_to_dict(config)


def test_bad_positions_rejected():
    with pytest.raises(ConfigurationError):
        config_from_dict({"positions": "nope"})


def _waypoint_block(**overrides):
    block = {"kind": "waypoint", "nodes": [0],
             "params": {"width": 4.0, "height": 4.0}}
    block.update(overrides)
    return block


def test_unknown_keys_are_named_and_rejected():
    cases = [
        # A removed knob or a misspelling must not load as if it were
        # absent, at the top level or inside a nested block.
        ({"max_entries": 3, "profil": True}, "['max_entries', 'profil']"),
        ({"bounds": {"nuu": 5}}, "'nuu'"),
        ({"mobility": [{"kind": "waypoint", "node": [0],
                        "params": {"width": 4.0, "height": 4.0}}]}, "'node'"),
        ({"mobility": [_waypoint_block(
            params={"width": 4.0, "height": 4.0, "speed_rang": [1, 2]})]},
         "'speed_rang'"),
        ({"mobility": [_waypoint_block(nodes=[0, 7])]}, "[7]"),
        ({"mobility": [_waypoint_block(nodes=[0, 1]),
                       _waypoint_block(kind="walk", nodes=[1])]}, "node 1"),
    ]
    for extra, named in cases:
        with pytest.raises(ConfigurationError) as raised:
            config_from_dict({"positions": [[0, 0], [1, 0]], **extra})
        assert named in str(raised.value), extra


def _waypoint49(mobility_factory_for):
    """A 7x7 copy of the e2e ledger's waypoint196-greedy at smoke size:
    stratified unit-disk positions (density 9, radio 3), every 4th node
    a random-waypoint mover."""
    side, radio, seed = 7, 3.0, 1
    cell = radio * math.sqrt(math.pi / 9.0)
    width = side * cell
    rng = random.Random(seed)
    positions = [
        Point((i % side + rng.random()) * cell,
              (i // side + rng.random()) * cell)
        for i in range(side * side)
    ]
    return ScenarioConfig(
        positions=positions, radio_range=radio, algorithm="alg1-greedy",
        seed=seed, delta_override=40,
        mobility_factory=mobility_factory_for(width, side * side),
    )


def test_waypoint_plan_runs_like_the_lambda_it_replaces():
    by_lambda = _waypoint49(lambda w, n: (
        lambda i: None if i % 4
        else RandomWaypoint(w, w, (0.5, 1.5), (1.0, 5.0))
    ))
    by_plan = _waypoint49(lambda w, n: MobilityPlan.of(
        "waypoint", range(0, n, 4), width=w, height=w,
        speed_range=(0.5, 1.5), pause_range=(1.0, 5.0),
    ))
    reports = [
        Simulation(config).run(until=20.0).report().to_dict()
        for config in (by_lambda, by_plan)
    ]
    assert reports[0]["engine"]["executed_events"] > 0
    # The lambda's report holds the stub; the plan's says what moved.
    assert "mobility" not in reports[0]["config"]
    (block,) = reports[1]["config"]["mobility"]
    assert block["nodes"] == list(range(0, 49, 4))
    for report in reports:
        del report["config"]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("algorithm", ["alg2", "alg1-greedy"])
def test_every_explore_family_round_trips_to_the_same_run(family, algorithm):
    for seed in range(3):
        row = build_scenario(family, algorithm, seed)
        config = config_from_dict(row["scenario"])
        rebuilt = config_from_dict(config_to_dict(config))
        reports = [
            Simulation(c).run(until=row["until"]).report().to_dict()
            for c in (config, rebuilt)
        ]
        assert reports[0] == reports[1], (family, algorithm, seed)
