"""Experiment E9 — the randomized coloring substitution (Chapter 7).

The paper's discussion argues a randomized color-reduction procedure
can slot into the recoloring module unchanged.  This benchmark runs the
substitution end-to-end against the two deterministic procedures under
recoloring-heavy mobility, comparing response time and recoloring
traffic — and verifies that the probabilistic procedure inherits the
module's deterministic *safety* (strict monitor on throughout).
"""

from repro.analysis.stats import summarize
from repro.analysis.tables import render_table
from repro.mobility import MobilityPlan
from repro.net.geometry import grid_positions
from repro.runtime.simulation import ScenarioConfig, Simulation

N = 12
UNTIL = 400.0
VARIANTS = ("alg1-greedy", "alg1-linial", "alg1-random")


def churn_run(algorithm: str):
    config = ScenarioConfig(
        positions=grid_positions(N, 1.0),
        radio_range=1.3,
        algorithm=algorithm,
        seed=37,
        think_range=(0.5, 2.0),
        delta_override=N - 1,
        mobility_factory=MobilityPlan.of(
            "walk", range(0, N, 3), width=4.0, height=4.0,
            hop_range=(0.8, 1.5), speed=1.0, pause_range=(4.0, 10.0),
        ),
    )
    sim = Simulation(config)
    result = sim.run(until=UNTIL)
    recolors = sum(sim.algorithm_of(i).recolor_runs for i in range(N))
    return result, recolors


def test_e9_randomized_substitution(benchmark, report):
    data = benchmark.pedantic(
        lambda: {a: churn_run(a) for a in VARIANTS}, rounds=1, iterations=1
    )
    rows = []
    for algorithm, (result, recolors) in data.items():
        s = summarize(result.response_times)
        rows.append([
            algorithm, result.cs_entries, f"{s.mean:.2f}", f"{s.p95:.2f}",
            recolors,
            f"{result.messages_per_cs():.1f}",
            ",".join(map(str, result.starved)) or "-",
        ])
    report(render_table(
        ["coloring", "cs entries", "mean rt", "p95 rt", "recolor runs",
         "msgs/cs", "starved"],
        rows,
        title=f"E9: coloring-procedure substitution under random-walk churn "
              f"({N}-node grid)",
    ))
    # All three procedures keep the algorithm safe and live.
    for algorithm, (result, recolors) in data.items():
        assert result.cs_entries > 200, algorithm
        assert result.starved == [], algorithm
        assert recolors > N  # churn forced real recoloring beyond bootstrap
    # Comparable throughput: the substitution costs no more than 30%.
    entries = {a: r.cs_entries for a, (r, _) in data.items()}
    assert entries["alg1-random"] >= 0.7 * entries["alg1-greedy"]
