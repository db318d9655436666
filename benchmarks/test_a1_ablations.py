"""Experiments A1-A3 — ablations of the paper's design choices.

DESIGN.md calls out three load-bearing mechanisms; each ablation
removes one and measures what breaks:

* A1: Algorithm 2 *without* the notification/switch mechanism (the
  paper credits it for the static O(n) bound of Theorem 26).
* A2: Algorithm 1 *without* the SDf return path (Lines 59-60; the
  mobility-recovery mechanism of Figure 6).
* A3: Algorithm 1's fork collection *without* doorway admission
  (the fairness machinery inherited from Choy-Singh).
"""

from repro.analysis.stats import summarize
from repro.analysis.tables import render_table
from repro.mobility import MobilityPlan
from repro.net.geometry import grid_positions, line_positions
from repro.runtime.simulation import ScenarioConfig, Simulation

UNTIL = 400.0


def saturated_line(algorithm: str, n: int = 24):
    config = ScenarioConfig(
        positions=line_positions(n, spacing=1.0),
        algorithm=algorithm,
        seed=17,
        think_range=(0.0, 0.2),
    )
    return Simulation(config).run(until=UNTIL)


def mobile_grid(algorithm: str, n: int = 16, movers: int = 5):
    config = ScenarioConfig(
        positions=grid_positions(n, 1.0),
        radio_range=1.2,
        algorithm=algorithm,
        seed=23,
        think_range=(0.5, 2.0),
        delta_override=n - 1,
        mobility_factory=MobilityPlan.of(
            "waypoint", range(movers), width=4.0, height=4.0,
            speed_range=(0.5, 1.2), pause_range=(5.0, 15.0),
        ),
    )
    return Simulation(config).run(until=UNTIL)


def test_ablations(benchmark, report):
    def run():
        return {
            "alg2": saturated_line("alg2"),
            "alg2-nonotify": saturated_line("alg2-nonotify"),
            "alg1-greedy (mobile)": mobile_grid("alg1-greedy"),
            "alg1-noreturn (mobile)": mobile_grid("alg1-noreturn"),
            "choy-singh": saturated_line("choy-singh", n=12),
            "alg1-nodoorway": saturated_line("alg1-nodoorway", n=12),
        }

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for name, result in data.items():
        s = summarize(result.response_times)
        rows.append([
            name, result.cs_entries, f"{s.mean:.2f}", f"{s.p95:.2f}",
            f"{s.maximum:.2f}",
            ",".join(map(str, result.starved)) or "-",
        ])
    report(render_table(
        ["variant", "cs entries", "mean rt", "p95 rt", "max rt", "starved"],
        rows,
        title="A1-A3: what each removed mechanism was buying "
              "(pairs: full protocol vs ablated)",
    ))

    def tail(name):
        return summarize(data[name].response_times).maximum

    # A3 is the dramatic one: doorway admission bounds the tail.
    assert tail("alg1-nodoorway") > 2.0 * tail("choy-singh"), (
        "removing doorways should inflate the response tail"
    )
    # A1: the notification mechanism never *hurts*; without it the tail
    # is at least as bad (usually worse) under saturation.
    assert tail("alg2-nonotify") >= 0.8 * tail("alg2")
    # A2: both variants stay safe and live under mobility (the return
    # path is about fairness/analysis, not bare liveness, thanks to the
    # link-destroys-fork rule); everyone still eats.
    for name in ("alg1-greedy (mobile)", "alg1-noreturn (mobile)"):
        assert data[name].cs_entries > 100
        assert data[name].starved == []
