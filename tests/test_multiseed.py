"""Tests for the multi-seed replication helpers.

Covers the confidence-interval arithmetic, the per-run key that names
report files (stable, seed- and field-sensitive, engine-shape aware,
absent for scenarios that do not serialize), and that ``replicate``'s
parallel path reproduces the serial numbers exactly.
"""

import math

import pytest

from repro.harness.config_io import config_from_dict, config_to_dict
from repro.harness.multiseed import (
    DEFAULT_METRICS,
    estimate,
    replicate,
    scenario_key,
    t_critical_95,
)
from repro.mobility import MobilityPlan
from repro.net.geometry import line_positions
from repro.runtime.simulation import ScenarioConfig


def test_t_critical_monotone_and_bounded():
    assert t_critical_95(1) > t_critical_95(5) > t_critical_95(100)
    assert t_critical_95(100) == pytest.approx(1.96)
    with pytest.raises(ValueError):
        t_critical_95(0)


def test_estimate_basics():
    e = estimate([2.0, 4.0, 6.0])
    assert e.mean == pytest.approx(4.0)
    assert e.samples == 3
    assert e.low < 4.0 < e.high
    assert "±" in str(e)


def test_estimate_single_sample_has_infinite_width():
    e = estimate([5.0])
    assert math.isinf(e.half_width)


def test_estimate_empty_rejected():
    with pytest.raises(ValueError):
        estimate([])


def test_replicate_runs_all_seeds_and_aggregates():
    config = ScenarioConfig(
        positions=line_positions(5, spacing=1.0),
        algorithm="alg2",
        think_range=(0.5, 2.0),
    )
    estimates = replicate(
        config, until=80.0, seeds=(1, 2, 3), metrics=DEFAULT_METRICS
    )
    assert set(estimates) == set(DEFAULT_METRICS)
    assert estimates["throughput"].samples == 3
    assert estimates["mean_response"].mean > 0
    # Throughput CI is finite with 3 seeds.
    assert not math.isinf(estimates["throughput"].half_width)


def test_replicate_is_seed_sensitive_but_deterministic():
    config = ScenarioConfig(
        positions=line_positions(4, spacing=1.0),
        algorithm="alg2",
        think_range=(0.5, 2.0),
    )
    a = replicate(config, until=60.0, seeds=(7,), metrics=DEFAULT_METRICS)
    b = replicate(config, until=60.0, seeds=(7,), metrics=DEFAULT_METRICS)
    assert a["mean_response"].mean == b["mean_response"].mean


def test_replicate_report_dir_writes_one_report_per_seed(tmp_path):
    from repro.obs.report import RunReport

    config = ScenarioConfig(
        positions=line_positions(4, spacing=1.0),
        radio_range=1.1,
        algorithm="alg2",
        telemetry=True,
    )
    out = tmp_path / "reports"
    replicate(config, until=40.0, seeds=(1, 2, 3), metrics=DEFAULT_METRICS,
              report_dir=out)
    files = sorted(out.glob("*.json"))
    assert len(files) == 3
    seeds_seen = {RunReport.load(f).config["seed"] for f in files}
    assert seeds_seen == {1, 2, 3}


def test_replicate_report_dir_leaves_the_estimates_alone(tmp_path):
    # Writing per-seed reports observes the runs; it must not perturb them.
    config = ScenarioConfig(
        positions=line_positions(4, spacing=1.0),
        radio_range=1.1,
        algorithm="alg2",
        telemetry=True,
    )
    plain = replicate(config, until=40.0, seeds=(1, 2), metrics=DEFAULT_METRICS)
    written = replicate(config, until=40.0, seeds=(1, 2),
                        metrics=DEFAULT_METRICS, report_dir=tmp_path / "out")
    assert {name: (e.mean, e.half_width) for name, e in plain.items()} == {
        name: (e.mean, e.half_width) for name, e in written.items()
    }


def test_replicate_metrics_dir_writes_openmetrics_per_seed(tmp_path):
    from helpers import parse_openmetrics

    config = ScenarioConfig(
        positions=line_positions(4, spacing=1.0),
        radio_range=1.1,
        algorithm="alg2",
        telemetry=True,
    )
    out = tmp_path / "prom"
    replicate(config, until=40.0, seeds=(1, 2), metrics=DEFAULT_METRICS,
              metrics_dir=out, report_dir=tmp_path / "reports")
    files = sorted(out.glob("*.prom"))
    assert len(files) == 2
    for path in files:
        families = parse_openmetrics(path.read_text())
        assert any(name.startswith("repro_alg2_") for name in families)
    # Snapshot stems pair up with the report stems for the same seed.
    report_stems = {p.stem for p in (tmp_path / "reports").glob("*.json")}
    assert {p.stem for p in files} == report_stems


def _config(**overrides):
    base = dict(
        positions=line_positions(4, spacing=1.0),
        algorithm="alg2",
        think_range=(0.5, 2.0),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def _plan(kind="waypoint", nodes=(0, 2), width=4.0):
    return MobilityPlan.of(kind, nodes, width=width, height=2.0)


def test_scenario_key_is_stable_and_seed_sensitive():
    config = _config()
    assert scenario_key(config, 30.0, 1) == scenario_key(config, 30.0, 1)
    assert scenario_key(config, 30.0, 1) != scenario_key(config, 30.0, 2)
    assert scenario_key(config, 30.0, 1) != scenario_key(config, 40.0, 1)


def test_scenario_key_changes_when_config_fields_change():
    config = _config()
    variants = [
        _config(radio_range=1.5),
        _config(algorithm="chandy-misra"),
        _config(think_range=(1.0, 3.0)),
        _config(delta_override=3),
        _config(crashes=[(5.0, 1)]),
    ]
    base_key = scenario_key(config, 30.0, 1)
    for variant in variants:
        assert scenario_key(variant, 30.0, 1) != base_key
    # A mobility plan is data: it has a key, and every block counts.
    mobile = scenario_key(_config(mobility_factory=_plan()), 30.0, 1)
    assert mobile is not None and mobile != base_key
    assert mobile == scenario_key(_config(mobility_factory=_plan()), 30.0, 1)
    for other in (_plan(nodes=[1]), _plan(width=5.0), _plan(kind="walk")):
        assert scenario_key(_config(mobility_factory=other), 30.0, 1) != mobile


def test_unserializable_scenarios_have_no_key():
    assert scenario_key(_config(algorithm=lambda ctx: None), 30.0, 1) is None
    assert (
        scenario_key(_config(mobility_factory=lambda nid: None), 30.0, 1)
        is None
    )


def test_replicate_workers_matches_serial():
    # The mobile case is JSON-loaded: its plan crosses the process
    # boundary with the config.
    mobile = config_from_dict(
        config_to_dict(_config(mobility_factory=_plan()))
    )
    for config in (_config(), mobile):
        serial = replicate(config, until=30.0, seeds=(1, 2, 3),
                           metrics=DEFAULT_METRICS)
        parallel = replicate(config, until=30.0, seeds=(1, 2, 3),
                             metrics=DEFAULT_METRICS, workers=2)
        for name in DEFAULT_METRICS:
            assert _estimates_equal(serial[name], parallel[name])


def test_replicate_rejects_bad_workers():
    with pytest.raises(ValueError):
        replicate(_config(), until=10.0, seeds=(1,), metrics=DEFAULT_METRICS,
                  workers=0)


def _estimates_equal(a, b):
    return (
        _float_equal(a.mean, b.mean)
        and _float_equal(a.half_width, b.half_width)
        and a.samples == b.samples
    )


def _float_equal(x, y):
    if math.isnan(x) and math.isnan(y):
        return True
    return x == y
