"""Experiment E7 — the cost of mobility (Chapter 7's open question).

The paper asks what node movement inherently costs.  We sweep the
fraction of mobile nodes on a grid and measure, for both of the paper's
algorithms: response time, critical-section throughput, recoloring runs
(Algorithm 1 only) and demotions.  Safety is enforced throughout by the
strict monitor — the run itself is the proof that mobility never breaks
mutual exclusion.
"""

from repro.analysis.stats import summarize
from repro.analysis.tables import render_table
from repro.mobility import MobilityPlan
from repro.net.geometry import grid_positions
from repro.runtime.simulation import ScenarioConfig, Simulation

N = 16
UNTIL = 400.0
MOVER_COUNTS = (0, 2, 4, 8)


def mobile_run(algorithm: str, movers: int):
    config = ScenarioConfig(
        positions=grid_positions(N, 1.0),
        radio_range=1.2,
        algorithm=algorithm,
        seed=23,
        think_range=(0.5, 2.0),
        delta_override=N - 1,
        mobility_factory=MobilityPlan.of(
            "waypoint", range(movers), width=4.0, height=4.0,
            speed_range=(0.5, 1.2), pause_range=(5.0, 15.0),
        ),
    )
    sim = Simulation(config)
    result = sim.run(until=UNTIL)
    summary = summarize(result.response_times)
    demotions = sum(c.demotions for c in result.metrics.counters.values())
    recolors = 0
    for i in range(N):
        recolors += getattr(sim.algorithm_of(i), "recolor_runs", 0)
    return summary, result.cs_entries, demotions, recolors


def test_e7_mobility_sweep(benchmark, report):
    def run():
        return {
            (algorithm, movers): mobile_run(algorithm, movers)
            for algorithm in ("alg2", "alg1-greedy")
            for movers in MOVER_COUNTS
        }

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for (algorithm, movers), (s, entries, demotions, recolors) in data.items():
        rows.append([
            algorithm, movers, entries, f"{s.mean:.2f}", f"{s.p95:.2f}",
            demotions, recolors,
        ])
    report(render_table(
        ["algorithm", "movers", "cs entries", "mean rt", "p95 rt",
         "demotions", "recolor runs"],
        rows,
        title=f"E7: mobility sweep on a {N}-node grid "
              f"(strict safety enforced throughout)",
    ))

    # Progress survives every mobility level.
    for (algorithm, movers), (s, entries, _, _) in data.items():
        assert entries > 100, f"{algorithm} with {movers} movers stalled"
    # Recoloring only happens when someone moves (plus first-color runs).
    first_colors = N  # every node recolors once for its initial color
    assert data[("alg1-greedy", 0)][3] <= first_colors
    assert data[("alg1-greedy", 8)][3] > data[("alg1-greedy", 0)][3]
