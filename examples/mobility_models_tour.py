#!/usr/bin/env python3
"""A tour of the mobility models and what they cost the protocols.

The same 16-node field runs Algorithm 2 under four mobility regimes —
static, random waypoint, Gauss-Markov (correlated velocity), and a
moving team (reference-point group mobility) — plus Algorithm 1 under
the most recoloring-hostile of them.  The table shows how movement
churn translates into response time, demotions and recoloring work,
with safety enforced by the strict monitor throughout.

Run:
    python examples/mobility_models_tour.py
"""

from repro import ScenarioConfig, Simulation
from repro.analysis.stats import summarize
from repro.analysis.tables import render_table
from repro.mobility import GroupCenter, GroupMobility, MobilityPlan
from repro.net.geometry import grid_positions

N = 16
ARENA = 4.0
UNTIL = 400.0
MOVERS = 5  # nodes 0..4 move (where the regime says anyone moves)


def regime_factories():
    center = GroupCenter(
        start=grid_positions(N, 1.0)[0], width=ARENA, height=ARENA,
        speed=0.4, leg_duration=25.0,
    )
    return {
        "static": None,
        "waypoint": MobilityPlan.of(
            "waypoint", range(MOVERS), width=ARENA, height=ARENA,
            speed_range=(0.5, 1.2), pause_range=(5.0, 15.0),
        ),
        "gauss-markov": MobilityPlan.of(
            "gauss-markov", range(MOVERS), width=ARENA, height=ARENA,
            mean_speed=0.8, alpha=0.8,
        ),
        # A team shares one GroupCenter, so it stays a callable: a plan
        # builds every member's model afresh.
        "group (team of 5)": lambda i: (
            GroupMobility(center, wander_radius=0.6, member_speed=1.0)
            if i < MOVERS else None
        ),
    }


def run(algorithm: str, regime: str, factory):
    config = ScenarioConfig(
        positions=grid_positions(N, 1.0),
        radio_range=1.3,
        algorithm=algorithm,
        seed=41,
        think_range=(0.5, 2.0),
        delta_override=N - 1,
        mobility_factory=factory,
    )
    sim = Simulation(config)
    result = sim.run(until=UNTIL)
    s = summarize(result.response_times)
    demotions = sum(c.demotions for c in result.metrics.counters.values())
    recolors = sum(
        getattr(sim.algorithm_of(i), "recolor_runs", 0) for i in range(N)
    )
    return [
        algorithm, regime, result.cs_entries, f"{s.mean:.2f}",
        f"{s.p95:.2f}", demotions, recolors,
        ",".join(map(str, result.starved)) or "-",
    ]


def main() -> None:
    rows = []
    for regime, factory in regime_factories().items():
        rows.append(run("alg2", regime, factory))
    # Algorithm 1 under the churn-heaviest regime, to show recoloring.
    rows.append(run("alg1-greedy", "gauss-markov",
                    regime_factories()["gauss-markov"]))
    print(render_table(
        ["algorithm", "mobility", "cs entries", "mean rt", "p95 rt",
         "demotions", "recolor runs", "starved"],
        rows,
        title=f"Mobility tour: {N}-node grid, {MOVERS} movers, {UNTIL} tu "
              "(strict safety monitor on)",
    ))
    print(
        "\nEvery regime kept full progress with zero mutual-exclusion "
        "violations;\nmovement shows up as demotions (preempted eaters) "
        "and, for Algorithm 1,\nrecoloring work."
    )


if __name__ == "__main__":
    main()
