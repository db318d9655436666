#!/usr/bin/env python3
"""Quickstart: local mutual exclusion on a small static network.

Runs the paper's Algorithm 2 (optimal failure locality) on an 8-node
line for 200 time units and prints what every downstream user wants to
know first: did everyone get their turns, how fast, at what message
cost — and was mutual exclusion ever violated (the safety checker
would have raised).

Run:
    python examples/quickstart.py
"""

from repro import ScenarioConfig, run_simulation
from repro.analysis.stats import summarize
from repro.analysis.tables import render_table
from repro.net.geometry import line_positions


def main() -> None:
    config = ScenarioConfig(
        positions=line_positions(8, spacing=1.0),
        algorithm="alg2",          # Chapter 6: failure locality 2
        seed=7,
        think_range=(1.0, 4.0),    # time between a node's CS requests
    )
    result = run_simulation(config, until=200.0)

    print("Local mutual exclusion with Algorithm 2 (8-node line, 200 tu)")
    print(f"  critical-section entries : {result.cs_entries}")
    print(f"  messages sent            : {result.messages_sent}")
    print(f"  messages per CS entry    : {result.messages_per_cs():.1f}")
    print(f"  starved nodes            : {result.starved or 'none'}")
    summary = summarize(result.response_times)
    print(f"  response time            : {summary}")
    print()

    rows = []
    for node, counters in sorted(result.metrics.counters.items()):
        node_summary = summarize(result.metrics.response_times(node))
        rows.append(
            [node, counters.cs_entries,
             node_summary.mean if node_summary else float("nan"),
             node_summary.maximum if node_summary else float("nan")]
        )
    print(render_table(
        ["node", "cs entries", "mean response", "max response"], rows,
        title="Per-node fairness",
    ))


if __name__ == "__main__":
    main()
