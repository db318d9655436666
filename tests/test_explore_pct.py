"""PCT exploration: the priority strategy the Table 1 campaigns reuse.

The random strategy carries CI's fuzz campaigns; PCT is kept for the
Table 1 item, so its three choice points are pinned down here: actor
priorities decide tie groups, change points demote the top actor,
delays are quantized so ties form at all, and every PCT run replays
bit-identically from its decision trace.  Campaigns must stay clean on
the paper's algorithms and catch each ablation with the same monitor
the random campaigns name.
"""

import io
import json
from types import SimpleNamespace

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.explore import ReplaySchedule, replay, run_campaign, run_controlled
from repro.explore.scenarios import build_scenario
from repro.explore.schedule import PCTStrategy

FAMILIES = ["static-line", "asym-line", "static-ring", "crash-line",
            "mobility-waypoint", "fig6"]

#: The monitor each ablation trips (what the ablation removes).
ABLATIONS = {
    "alg2-nonotify": "stale-priority",
    "alg1-noreturn": "return-path",
    "alg1-nodoorway": "doorway-entry",
}


def _deliver(node, peer):
    pass


def _event(node, peer=None):
    args = (node,) if peer is None else (node, peer)
    return SimpleNamespace(callback=_deliver, args=args)


# ----------------------------------------------------------------------
# The strategy on its own
# ----------------------------------------------------------------------


def test_pct_rejects_depth_below_one():
    with pytest.raises(ConfigurationError):
        PCTStrategy(seed=0, depth=0)


def test_pct_actor_is_callback_plus_leading_int_args():
    qualname = _deliver.__qualname__
    assert PCTStrategy._actor(_event(3, 4)) == (qualname, 3, 4)
    assert PCTStrategy._actor(
        SimpleNamespace(callback=_deliver, args=(3, 4, 5))
    ) == (qualname, 3, 4)
    assert PCTStrategy._actor(
        SimpleNamespace(callback=_deliver, args=("msg", 7))
    ) == (qualname, 7)


def test_pct_tie_winner_follows_the_actor_not_the_position():
    strategy = PCTStrategy(seed=5, depth=1)
    a, b = _event(0, 1), _event(1, 0)
    first = strategy.tie_break([a, b])
    winner = [a, b][first]
    for _ in range(20):
        assert [b, a][strategy.tie_break([b, a])] is winner
        assert [a, b][strategy.tie_break([a, b])] is winner


def test_pct_change_point_demotes_the_top_actor_once():
    switched = 0
    for seed in range(10):
        strategy = PCTStrategy(seed=seed, depth=2, expected_decisions=10)
        a, b = _event(0), _event(1)
        winners = [[a, b][strategy.tie_break([a, b])] for _ in range(20)]
        changes = sum(x is not y for x, y in zip(winners, winners[1:]))
        assert changes <= 1
        switched += changes
    # Without change points the first winner holds every tie.
    strategy = PCTStrategy(seed=0, depth=1, expected_decisions=10)
    winners = {strategy.tie_break([a, b]) for _ in range(20)}
    assert len(winners) == 1
    assert switched > 0


def test_pct_quantizes_delays_to_three_levels():
    strategy = PCTStrategy(seed=2)
    strategy.bind(min_message_delay=0.5, nu=1.0)
    delays = {strategy.message_delay(0, 1, None) for _ in range(100)}
    assert delays == {0.5, 0.75, 1.0}
    assert strategy.log.counts()["d"] == 100


def test_pct_crash_jitter_stays_within_five_nu():
    strategy = PCTStrategy(seed=4)
    strategy.bind(min_message_delay=0.5, nu=2.0)
    scenario = {"crashes": [[30.0, 1]] * 50 + [[0.0, 2]]}
    crashes = strategy.perturb(scenario)["crashes"]
    times = [t for t, _ in crashes[:-1]]
    assert all(20.0 <= t <= 40.0 for t in times)
    assert len(set(times)) > 1
    assert crashes[-1][0] >= 0.0
    assert [n for _, n in crashes] == [1] * 50 + [2]
    # The plan itself is left as written, and nothing is a decision.
    assert scenario["crashes"][0] == [30.0, 1]
    assert strategy.log.decisions == []


# ----------------------------------------------------------------------
# Controlled runs and campaigns
# ----------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ["alg2", "alg1-greedy"])
@pytest.mark.parametrize("family", FAMILIES)
def test_pct_run_replays_bit_identically(family, algorithm):
    entry = build_scenario(family, algorithm, seed=0)
    result = run_controlled(entry["scenario"], entry["until"],
                            PCTStrategy(seed=1))
    assert result.violation is None
    assert result.report.exploration["decisions"]["tie"] > 0
    # Crash timing is scenario data: the result holds the jittered plan
    # that ran, and the trace holds runtime choices only.
    assert {kind for kind, _ in result.decisions} <= {"t", "d"}
    nu = result.scenario.get("bounds", {}).get("nu", 1.0)
    planned = entry["scenario"].get("crashes", [])
    ran = result.scenario.get("crashes", [])
    assert [n for _, n in ran] == [n for _, n in planned]
    for (t_ran, _), (t_plan, _) in zip(ran, planned):
        assert abs(t_ran - t_plan) <= 5.0 * nu
    again = run_controlled(
        result.scenario, entry["until"], ReplaySchedule(result.decisions),
        monitor_specs=result.monitor_specs,
    )
    assert again.decisions == result.decisions
    original = result.report.to_dict()
    original["exploration"]["strategy"] = {"kind": "replay"}
    assert json.dumps(original, sort_keys=True) == json.dumps(
        again.report.to_dict(), sort_keys=True
    )


@pytest.mark.parametrize("algorithm", ["alg2", "alg1-greedy", "alg1-linial"])
def test_pct_campaign_is_clean_on_the_paper_algorithms(algorithm):
    campaign = run_campaign(algorithm, runs=12, seed=1, strategy="pct")
    assert campaign.clean
    assert len(campaign.outcomes) == 12


@pytest.mark.parametrize("algorithm", sorted(ABLATIONS))
def test_pct_campaign_catches_each_ablation(algorithm):
    campaign = run_campaign(algorithm, runs=12, seed=1, strategy="pct",
                            stop_on_first=True)
    repro = campaign.violations[0]
    assert repro.violation["monitor"] == ABLATIONS[algorithm]
    assert repro.strategy["kind"] == "pct"
    assert replay(repro).violation.to_dict() == repro.violation


def test_cli_explore_fuzz_accepts_the_pct_strategy(tmp_path):
    out = io.StringIO()
    code = cli_main([
        "explore", "fuzz", "--algorithm", "alg1-noreturn", "--strategy",
        "pct", "--runs", "12", "--seed", "1", "--stop-on-first",
        "--out", str(tmp_path),
    ], out=out)
    assert code == 1
    assert "strategy pct" in out.getvalue()
    (path,) = tmp_path.glob("*.json")
    assert json.loads(path.read_text())["strategy"]["kind"] == "pct"
