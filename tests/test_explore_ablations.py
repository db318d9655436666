"""Fuzz campaigns must separate clean protocols from the ablations.

The tier-1 smoke keeps one bounded seeded campaign per algorithm: each
deliberately-broken variant in :mod:`repro.core.ablations` is flagged
by its designated monitor, and the clean algorithms survive the same
campaign untouched.  The ``fuzz``-marked tests widen the sweep (more
runs, more seeds, the PCT strategy) and are excluded from tier-1 —
run them with ``pytest -m fuzz``.
"""

import pytest

from repro.explore import run_campaign

#: ablation -> the monitor its designated scenario family trips.
ABLATION_MONITORS = {
    "alg2-nonotify": "stale-priority",
    "alg1-noreturn": "return-path",
    "alg1-nodoorway": "doorway-entry",
}

CLEAN_ALGORITHMS = ["alg2", "alg1-greedy", "alg1-linial"]

#: one bounded campaign: 12 runs covers every scenario family at least
#: once (fig6 included for the alg1 variants).
SMOKE_RUNS = 12
SMOKE_SEED = 1


def _monitors(result):
    """The monitors a campaign's violations came from."""
    return {repro.violation.get("monitor") for repro in result.violations}


# ----------------------------------------------------------------------
# Tier-1 smoke
# ----------------------------------------------------------------------


@pytest.mark.parametrize("ablation", sorted(ABLATION_MONITORS))
def test_smoke_campaign_catches_ablation(ablation):
    result = run_campaign(
        ablation, runs=SMOKE_RUNS, seed=SMOKE_SEED, stop_on_first=True
    )
    assert not result.clean, f"{ablation} escaped the campaign"
    assert ABLATION_MONITORS[ablation] in _monitors(result)


@pytest.mark.parametrize("algorithm", CLEAN_ALGORITHMS)
def test_smoke_campaign_keeps_clean_algorithm_clean(algorithm):
    result = run_campaign(algorithm, runs=SMOKE_RUNS, seed=SMOKE_SEED)
    assert result.clean, (
        f"{algorithm} flagged: {[v.violation for v in result.violations]}"
    )
    assert result.runs == SMOKE_RUNS


def test_smoke_violations_carry_replayable_repros():
    result = run_campaign(
        "alg1-nodoorway", runs=SMOKE_RUNS, seed=SMOKE_SEED,
        stop_on_first=True,
    )
    repro = result.violations[0]
    assert repro.violation["monitor"] == "doorway-entry"
    assert repro.violation["step"] > 0
    # The repro embeds everything a replay needs.
    assert repro.scenario["algorithm"] == "alg1-nodoorway"
    assert repro.monitors and repro.strategy["kind"] == "random"


# ----------------------------------------------------------------------
# Wide sweeps (pytest -m fuzz)
# ----------------------------------------------------------------------


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", [0, 2, 7, 11])
@pytest.mark.parametrize("ablation", sorted(ABLATION_MONITORS))
def test_fuzz_ablation_caught_across_seeds(ablation, seed):
    result = run_campaign(ablation, runs=24, seed=seed, workers=2)
    assert not result.clean
    assert ABLATION_MONITORS[ablation] in _monitors(result)


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", [0, 2, 7, 11])
@pytest.mark.parametrize("algorithm", CLEAN_ALGORITHMS)
def test_fuzz_clean_algorithms_survive_across_seeds(algorithm, seed):
    result = run_campaign(algorithm, runs=24, seed=seed, workers=2)
    assert result.clean, (
        f"{algorithm} flagged at seed {seed}: "
        f"{[v.violation for v in result.violations]}"
    )


@pytest.mark.fuzz
@pytest.mark.parametrize("ablation", sorted(ABLATION_MONITORS))
def test_fuzz_pct_strategy_also_catches(ablation):
    result = run_campaign(ablation, runs=24, seed=1, strategy="pct")
    assert not result.clean
    assert ABLATION_MONITORS[ablation] in _monitors(result)
