"""Experiment E8 — message complexity (Chapter 7 names it future work).

The paper never analyzes message complexity; its discussion lists it as
an open measure.  We close the loop empirically: messages per
critical-section entry for every protocol, static and mobile, broken
down by message kind for the paper's algorithms — quantifying what the
doorway machinery costs relative to Algorithm 2's notification scheme.
"""

from repro.analysis.tables import render_table
from repro.mobility import MobilityPlan
from repro.net.geometry import grid_positions
from repro.runtime.simulation import ScenarioConfig, Simulation

N = 12
UNTIL = 400.0
ALGORITHMS = ("alg2", "alg1-linial", "alg1-greedy", "chandy-misra",
              "ordered-ids", "oracle")


def run_one(algorithm: str, mobile: bool):
    config = ScenarioConfig(
        positions=grid_positions(N, 1.0),
        radio_range=1.2,
        algorithm=algorithm,
        seed=29,
        think_range=(0.5, 2.0),
        delta_override=N - 1,
        mobility_factory=MobilityPlan.of(
            "waypoint", range(3), width=4.0, height=4.0,
            speed_range=(0.5, 1.0), pause_range=(8.0, 20.0),
        ) if mobile else None,
    )
    return Simulation(config).run(until=UNTIL)


def test_e8_message_complexity(benchmark, report):
    def run():
        return {
            (algorithm, mobile): run_one(algorithm, mobile)
            for algorithm in ALGORITHMS
            for mobile in (False, True)
        }

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for (algorithm, mobile), result in sorted(
        data.items(), key=lambda kv: (kv[0][1], ALGORITHMS.index(kv[0][0]))
    ):
        rows.append([
            "mobile" if mobile else "static",
            algorithm,
            result.cs_entries,
            f"{result.messages_per_cs():.1f}"
            if result.messages_per_cs() is not None else "0",
        ])
    report(render_table(
        ["setting", "algorithm", "cs entries", "msgs / cs entry"],
        rows,
        title=f"E8: message complexity, {N}-node grid",
    ))

    # Breakdown by kind for the paper's two algorithms (static).
    for algorithm in ("alg2", "alg1-greedy"):
        kinds = data[(algorithm, False)].messages_by_kind
        top = sorted(kinds.items(), key=lambda kv: -kv[1])[:6]
        report(render_table(
            ["message kind", "count"], top,
            title=f"E8 detail: {algorithm} message mix (static)",
        ))

    static_cost = {
        a: data[(a, False)].messages_per_cs() for a in ALGORITHMS
    }
    # The oracle sends nothing; every real protocol pays something.
    assert static_cost["oracle"] == 0
    # Algorithm 2 is leaner than the doorway-pipeline variants.
    assert static_cost["alg2"] < static_cost["alg1-greedy"]
    assert static_cost["alg2"] < static_cost["alg1-linial"]
    # Mobility strictly increases Algorithm 1's cost (recoloring traffic).
    assert (
        data[("alg1-greedy", True)].messages_per_cs()
        > data[("alg1-greedy", False)].messages_per_cs()
    )
