#!/usr/bin/env python3
"""Meeting-room projector control (Chapter 1's second application).

"Another application of local mutual exclusion is to arbitrate access
to some piece of specialized hardware in a region, such as ... the
control over a projector in a meeting room."

Six laptops sit around a table; whoever holds the (local) critical
section drives the projector.  Mid-meeting, two latecomers walk in from
the corridor — their arrival must not let two people drive the
projector at once, and the paper's Algorithm 1 makes them *recolor*
before competing.  We print the control timeline and show the
latecomers integrating cleanly.

Run:
    python examples/meeting_room_projector.py
"""

from repro import ScenarioConfig, Simulation
from repro.mobility import MobilityPlan
from repro.net.geometry import Point, ring_positions

ATTENDEES = 6
LATECOMERS = 2
ARRIVALS = (60.0, 90.0)
DURATION = 240.0


def main() -> None:
    # The table: six laptops on a ring, all in mutual radio range.
    positions = list(ring_positions(ATTENDEES, radius=0.45))
    # Latecomers start in the corridor, out of range.
    positions.append(Point(10.0, 0.0))
    positions.append(Point(12.0, 0.0))

    # Each latecomer walks to the table at speed 2: [time, x, y, speed].
    arrivals = MobilityPlan([
        {"kind": "scripted", "nodes": [ATTENDEES],
         "params": {"moves": [[ARRIVALS[0], 0.0, 0.0, 2.0]]}},
        {"kind": "scripted", "nodes": [ATTENDEES + 1],
         "params": {"moves": [[ARRIVALS[1], 0.1, 0.1, 2.0]]}},
    ])

    config = ScenarioConfig(
        positions=positions,
        radio_range=1.5,
        algorithm="alg1-greedy",  # recoloring handles the walk-ins
        seed=31,
        think_range=(4.0, 12.0),  # presenters talk a while between slides
        mobility_factory=arrivals,
        trace=True,
    )
    sim = Simulation(config)
    result = sim.run(until=DURATION)

    print("Projector control timeline (node >= 6 are latecomers):")
    for record in sim.trace.select(category="cs.enter"):
        who = f"laptop-{record.node}"
        tag = "  <- latecomer" if record.node >= ATTENDEES else ""
        print(f"  t={record.time:7.2f}  {who} takes the projector{tag}")

    print()
    for node in range(len(positions)):
        entries = result.metrics.counters.get(node)
        count = entries.cs_entries if entries else 0
        print(f"  laptop-{node}: drove the projector {count} times")
    recolors = [sim.algorithm_of(i).recolor_runs for i in range(len(positions))]
    print(f"\nRecoloring runs per node: {recolors}")
    print("Latecomers recolored on arrival and nobody ever shared the "
          "projector (the strict safety monitor would have raised).")


if __name__ == "__main__":
    main()
