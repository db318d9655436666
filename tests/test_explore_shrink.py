"""Shrinking: minimal repro files that still fail the same way.

``shrink_repro`` must only ever accept candidates that an actual
replay confirmed, so the invariants here are hard guarantees: the
size metric never grows, the shrunk repro still trips the original
monitor, and a replay of the shrunk file succeeds end to end.
"""

import pytest

from repro.errors import ConfigurationError
from repro.explore import (
    ReplaySchedule,
    ReproFile,
    replay,
    run_campaign,
    run_controlled,
    shrink_repro,
)
from repro.explore.runner import check_repro


@pytest.fixture(scope="module")
def violation_repro():
    """One violating run from the fastest-failing ablation campaign."""
    result = run_campaign(
        "alg2-nonotify", runs=12, seed=1, stop_on_first=True
    )
    assert not result.clean
    return result.violations[0]


def test_shrink_is_monotone_and_preserves_the_monitor(violation_repro):
    shrunk, replays = shrink_repro(violation_repro)
    assert replays > 0
    assert shrunk.size() <= violation_repro.size()
    assert shrunk.violation["monitor"] == violation_repro.violation["monitor"]
    # The shrinker touched horizon + decisions here, so it should make
    # real progress, not just return its input.
    assert shrunk.size() < violation_repro.size()
    assert shrunk.until <= violation_repro.until


def test_shrunk_repro_records_its_origin(violation_repro):
    shrunk, _ = shrink_repro(violation_repro)
    assert shrunk.shrunk_from == {
        "size": violation_repro.size(),
        "decisions": len(violation_repro.decisions),
        "until": violation_repro.until,
    }


def test_shrunk_repro_still_fails_via_replay(violation_repro):
    shrunk, _ = shrink_repro(violation_repro)
    result = replay(shrunk)  # raises on divergence
    assert result.violation.monitor == shrunk.violation["monitor"]
    assert result.violation.step == shrunk.violation["step"]


def test_shrink_respects_the_replay_budget(violation_repro):
    shrunk, replays = shrink_repro(violation_repro, max_replays=3)
    assert replays <= 3
    # Whatever came out still fails: candidates are only kept when a
    # replay confirmed them.
    assert check_repro(shrunk) is not None


def test_shrunk_mobility_repro_replays_from_file(tmp_path):
    # The first alg1-noreturn violation of this campaign is on the
    # mobility-waypoint family: a departure the kinetic engine timed.
    campaign = run_campaign(
        "alg1-noreturn", runs=12, seed=1, stop_on_first=True
    )
    repro = campaign.violations[0]
    assert repro.scenario["mobility"][0]["kind"] == "waypoint"
    shrunk, _ = shrink_repro(repro)
    assert shrunk.size() < repro.size()
    loaded = ReproFile.load(shrunk.save(tmp_path / "mobility.json"))
    result = replay(loaded)  # raises on divergence
    assert result.violation.to_dict() == shrunk.violation
    assert result.violation.monitor == "return-path"
    simulations = []
    run_controlled(
        loaded.scenario, loaded.until, ReplaySchedule(loaded.decisions),
        monitor_specs=loaded.monitors, on_simulation=simulations.append,
    )
    assert simulations[0].mobility.stats()["crossing_events"] > 0


def test_replay_of_tampered_repro_diverges(violation_repro):
    tampered = type(violation_repro).from_dict(violation_repro.to_dict())
    tampered.violation = dict(tampered.violation)
    tampered.violation["monitor"] = "exclusion"
    with pytest.raises(ConfigurationError):
        replay(tampered)


def test_shrink_drops_crashes_the_violation_does_not_need(violation_repro):
    # Two crashes planned after the violation cannot be what causes it:
    # ddmin over the crash plan must remove both.
    data = violation_repro.to_dict()
    late = violation_repro.violation["time"]
    data["scenario"]["crashes"] = [[late + 1.0, 0], [late + 2.0, 1]]
    padded = ReproFile.from_dict(data)
    assert check_repro(padded) is not None
    shrunk, _ = shrink_repro(padded)
    assert shrunk.scenario["crashes"] == []
    assert shrunk.violation["monitor"] == violation_repro.violation["monitor"]
    assert replay(shrunk).violation.to_dict() == shrunk.violation
