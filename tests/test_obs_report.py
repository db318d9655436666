"""Tests for RunReport: round-trips, diffs, determinism, golden schema.

The golden file ``tests/data/golden_report.json`` pins the report
*schema*: regenerate it (see ``_golden_config``) only on a deliberate,
version-bumped layout change.  Structure and integer leaves must match
exactly; float leaves are compared approximately because the
``statistics`` module's summation details may differ across
interpreter versions.  ``tests/data/golden_greedy_flood.json`` pins a
recolouring flood the same way (see ``_greedy_flood_config``), so a
performance change to the colouring or message planes proves
bit-identity against a file.  It is a pin, not a schema reference, and
is stored unindented (``report.to_json(indent=None)``): read it with
``repro report``.
"""

import json
import math
import random
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.net.geometry import Point, line_positions
from repro.obs.report import SCHEMA_VERSION, RunReport, _flatten
from repro.runtime.simulation import ScenarioConfig, Simulation

GOLDEN = Path(__file__).parent / "data" / "golden_report.json"
GOLDEN_FLOOD = Path(__file__).parent / "data" / "golden_greedy_flood.json"


def _golden_config():
    return ScenarioConfig(
        positions=line_positions(6, spacing=1.0),
        radio_range=1.1,
        algorithm="alg2",
        seed=3,
        crashes=[(20.0, 2)],
        telemetry=True,
        watchdog=15.0,
    )


def _greedy_flood_config():
    """7x7 stratified unit-disk (one node per lattice cell, mean degree
    about 10): every node recolours at once, so GreedySession floods."""
    rng = random.Random(1)
    radio, side = 3.0, 7
    cell = math.sqrt(math.pi * radio * radio / 12)
    return ScenarioConfig(
        positions=[
            Point((i % side + rng.random()) * cell,
                  (i // side + rng.random()) * cell)
            for i in range(side * side)
        ],
        radio_range=radio,
        algorithm="alg1-greedy",
        seed=1,
        telemetry=True,
    )


def _small_report():
    config = ScenarioConfig(
        positions=line_positions(4, spacing=1.0),
        radio_range=1.1,
        algorithm="alg2",
        seed=7,
        telemetry=True,
    )
    return Simulation(config).run(until=60.0).report()


# ----------------------------------------------------------------------
# Serialization round-trips
# ----------------------------------------------------------------------


def test_json_round_trip_is_bit_identical():
    report = _small_report()
    text = report.to_json()
    clone = RunReport.from_json(text)
    assert clone.to_json() == text
    assert clone.to_dict() == report.to_dict()


def test_save_load_round_trip(tmp_path):
    report = _small_report()
    path = report.save(tmp_path / "run.json")
    assert RunReport.load(path).to_dict() == report.to_dict()


def test_from_dict_rejects_other_schema_versions():
    with pytest.raises(ConfigurationError):
        RunReport.from_dict({"schema_version": SCHEMA_VERSION + 1})
    with pytest.raises(ConfigurationError):
        RunReport.from_dict({})


def test_from_dict_rejects_a_version_1_report():
    # Version 1 carried the wall-clock ``profile`` / ``resources``
    # blocks; loading one must name the version, not just fail.
    old = dict(_small_report().to_dict(), schema_version=1,
               profile=None, resources=None)
    with pytest.raises(ConfigurationError, match="schema version 1"):
        RunReport.from_dict(old)


def test_from_dict_rejects_unknown_fields():
    data = RunReport().to_dict()
    data["surprise"] = 1
    with pytest.raises(ConfigurationError):
        RunReport.from_dict(data)


def test_from_json_rejects_garbage():
    with pytest.raises(ConfigurationError):
        RunReport.from_json("{not json")
    with pytest.raises(ConfigurationError):
        RunReport.from_json("[1, 2]")


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------


def test_fixed_seed_runs_produce_bit_identical_reports():
    config = _golden_config()
    first = Simulation(config).run(until=120.0).report()
    second = Simulation(_golden_config()).run(until=120.0).report()
    assert first.to_json() == second.to_json()
    assert first.diff(second) == {}


def test_telemetry_and_watchdog_do_not_change_protocol_leaves():
    config = _golden_config()
    config.telemetry = False
    config.watchdog = None
    plain = Simulation(config).run(until=120.0).report()
    full = Simulation(_golden_config()).run(until=120.0).report()
    changed = full.diff(plain)
    # Only observation-layer leaves may differ: probe metrics, watchdog
    # warnings, the config flags that enabled them, and engine counters
    # (watchdog ticks are engine events).  Protocol-visible sections
    # must be untouched.
    for path in changed:
        top = path.split(".")[0].split("[")[0]
        assert top in ("probes", "warnings", "config", "engine"), path
    assert plain.response == full.response
    assert plain.channel == full.channel


# ----------------------------------------------------------------------
# Diff
# ----------------------------------------------------------------------


def test_diff_reports_changed_leaves_with_dotted_paths():
    a = RunReport(duration=10.0, response={"cs_entries": 5, "mean": 1.0})
    b = RunReport(duration=12.0, response={"cs_entries": 5, "mean": 2.0})
    changed = a.diff(b)
    assert changed["duration"] == (10.0, 12.0)
    assert changed["response.mean"] == (1.0, 2.0)
    assert "response.cs_entries" not in changed


def test_diff_shows_one_sided_paths_as_none():
    a = RunReport(probes={"fork.requests": {"value": 3}})
    b = RunReport()
    changed = a.diff(b)
    assert changed["probes.fork.requests.value"] == (3, None)


def test_summary_lines_mention_the_essentials():
    report = _small_report()
    text = "\n".join(report.summary_lines())
    assert f"schema v{SCHEMA_VERSION}" in text
    assert "cs entries" in text
    assert "engine" in text
    assert "probe metrics" in text


# ----------------------------------------------------------------------
# Golden schema file
# ----------------------------------------------------------------------


def _assert_matches_golden(golden_path, fresh):
    golden = RunReport.load(golden_path)
    assert golden.schema_version == SCHEMA_VERSION
    golden_leaves = _flatten(golden.to_dict())
    fresh_leaves = _flatten(fresh.to_dict())
    # The set of dotted leaf paths IS the schema: any rename, removal or
    # addition must be deliberate (regenerate the golden + bump review).
    assert set(golden_leaves) == set(fresh_leaves)
    for path, value in golden_leaves.items():
        other = fresh_leaves[path]
        if isinstance(value, float) and isinstance(other, float):
            assert math.isclose(value, other, rel_tol=1e-9, abs_tol=1e-12), path
        else:
            assert value == other, path


def test_golden_report_schema_is_stable():
    _assert_matches_golden(
        GOLDEN, Simulation(_golden_config()).run(until=120.0).report()
    )


def test_golden_greedy_flood_is_stable():
    _assert_matches_golden(
        GOLDEN_FLOOD,
        Simulation(_greedy_flood_config()).run(until=60.0).report(),
    )


def test_golden_report_is_valid_canonical_json():
    text = GOLDEN.read_text()
    data = json.loads(text)
    assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
