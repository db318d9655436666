"""The simulator as test oracle: replay a live recording in-sim.

:func:`derive_replay` turns one recording into a scenario + delay
decision stream whose controlled simulation reproduces the live
execution *exactly* — same stamps, same delivery order, same state transitions:

* every ``hungry`` row becomes a scripted hunger arrival at its
  recorded stamp (``become_hungry`` self-guards, so ineffective pokes
  replay as the same no-ops);
* every ``enter`` effect becomes a scripted eating duration — the gap
  to its recorded ``exit``, or a past-the-horizon sentinel when the
  entry was demoted or still eating at the end (the demotion replays
  organically from the same messages; the sentinel only keeps the sim's
  eat timer from firing first);
* every emitted message becomes a replayed channel-delay decision:
  ``settle_stamp - emit_stamp``, where the settle stamp is its ``recv``
  *or* ``drop`` row (a drop replays as an arrival at the drop stamp,
  where the sim link is equally down — same silent drop).  Messages
  still in flight at the end get a sentinel arrival past the replay
  horizon.  Per-directed-link FIFO in the live transports keeps these
  arrival times monotone per link, so the channel's FIFO clamp never
  fires and replayed delays land verbatim;
* link rows become the scenario's ``link_script`` and crash rows its
  crash plan — scenario data, which the replay runs as given.

The scenario is the recording's origin scenario decoded by
:func:`~repro.harness.config_io.config_from_dict`, with those replayed
fields, the bounds below and the oracle's observation switches
replaced, and encoded back: every other field keeps the origin's
value, defaults included.

Live stamps are strictly increasing (the runtime monotonizes them), so
the replay needs no tie-break decisions at all.  The scenario's ``nu``
is inflated to cover the largest replayed delay and the minimum-delay
fraction deflated under the smallest, so the scheduler's legality
clamp passes every recorded value through unchanged.

:func:`verify_recording` runs that replay under the exploration
subsystem's invariant monitors (exclusion, doorway-entry, priority
antisymmetry, ... — progress excluded: a wall-clock run makes no
virtual-time progress guarantees) and then checks *fidelity*: the
replay's externally visible transitions must match the recording's
``fx`` stream one for one, to within float rounding (the sim computes
``emit + delay`` where the recording stored the sum).  Both sides are
the same stream: the live recorder and the replay's
:attr:`~repro.runtime.simulation.Simulation.effects` log are each the
effect sink of every node harness, so one piece of code decides what an
effect is in both runtimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.harness.config_io import config_from_dict, config_to_dict
from repro.live.recorder import SCHEMA

#: Permitted stamp slack between a recorded effect and its replay.
#: Rounding in ``emit + (settle - emit)`` is a few ulp (~1e-13 at these
#: magnitudes); distinct stamps differ by >= TIME_EPSILON (1e-9).  This
#: sits cleanly between the two.
STAMP_TOLERANCE = 1e-10

#: How far past the end of the recording in-flight sentinels land.
_SENTINEL_MARGIN = 2.0
#: Replay horizon margin: sentinels stay strictly beyond it.
_HORIZON_MARGIN = 1.0


@dataclass
class DerivedReplay:
    """Everything needed to re-run one recording in the simulator."""

    scenario: Dict[str, Any]
    until: float
    decisions: List[List[Any]]
    #: The recording's effect stream: (stamp, tag, node).
    expected: List[Tuple[float, str, int]]
    monitor_specs: List[Dict[str, Any]] = field(default_factory=list)


def derive_replay(recording: Dict[str, Any]) -> DerivedReplay:
    """Project one live recording onto a controlled-simulation input."""
    if recording.get("schema") != SCHEMA:
        raise ConfigurationError(
            f"unsupported recording schema {recording.get('schema')!r}"
        )
    origin = recording["scenario"]
    rows = recording["rows"]
    t_end = float(recording["t_end"])
    until = t_end + _HORIZON_MARGIN
    sentinel = t_end + _SENTINEL_MARGIN

    # Pass 1: where every message settled (delivered or dropped).
    settled: Dict[str, float] = {}
    for row in rows:
        if row["k"] in ("recv", "drop"):
            settled[row["m"]] = float(row["t"])

    hunger: Dict[int, List[float]] = {}
    eating: Dict[int, List[float]] = {}
    open_eat: Dict[int, Tuple[int, float]] = {}
    link_script: List[List[Any]] = []
    crashes: List[Tuple[float, int]] = []
    delays: List[float] = []
    expected: List[Tuple[float, str, int]] = []

    for row in rows:
        t = float(row["t"])
        kind = row["k"]
        if kind == "hungry":
            hunger.setdefault(int(row["n"]), []).append(t)
        elif kind == "up":
            link_script.append(
                [t, "up", int(row["a"]), int(row["b"]),
                 int(row.get("mover", -1))]
            )
        elif kind == "down":
            link_script.append([t, "down", int(row["a"]), int(row["b"]), -1])
        elif kind == "crash":
            crashes.append((t, int(row["n"])))
        for src, dst, mid, _ in row.get("emits", ()):
            arrival = settled.get(mid, sentinel)
            delays.append(arrival - t)
        for tag, node in row.get("fx", ()):
            node = int(node)
            expected.append((t, tag, node))
            if tag == "enter":
                durations = eating.setdefault(node, [])
                durations.append(sentinel - t)
                open_eat[node] = (len(durations) - 1, t)
            elif tag == "exit":
                slot = open_eat.pop(node, None)
                if slot is not None:
                    index, entered = slot
                    eating[node][index] = t - entered
            elif tag == "demote":
                # Leave the sentinel: the sim's demotion arises from the
                # replayed messages; the timer must simply never win.
                open_eat.pop(node, None)

    base = config_from_dict(origin)
    nu = float(base.bounds.nu)
    fraction = float(base.bounds.min_delay_fraction)
    if delays:
        nu = max(nu, max(delays))
        floor = min(delays)
        fraction = min(fraction, floor / nu)
        # The scheduler clamps delays into [fraction * nu, nu]; nudge
        # the fraction down until rounding cannot push the floor above
        # the smallest recorded delay.
        while fraction > 0.0 and fraction * nu > floor:
            fraction = math.nextafter(fraction, 0.0)
        fraction = max(fraction, 5e-324)
    # The recorded rows replace the origin's hunger, eating, churn
    # (its mobility runs as the recorded link rows) and crash plan.  The
    # oracle observes through its monitors and effect log, without a
    # metric registry.  Every other field is the origin's.
    scenario = config_to_dict(replace(
        base,
        bounds=replace(base.bounds, nu=nu, min_delay_fraction=fraction),
        scripted_hunger=hunger,
        scripted_eating=eating or None,
        link_script=link_script or None,
        mobility_factory=None,
        crashes=crashes,
        trace=True,
        telemetry=False,
    ))

    return DerivedReplay(
        scenario=scenario,
        until=until,
        decisions=[["d", delay] for delay in delays],
        expected=expected,
        monitor_specs=_monitor_specs(scenario, until),
    )


def _monitor_specs(scenario: Dict[str, Any],
                   until: float) -> List[Dict[str, Any]]:
    """The invariant-monitor set for one replay: the campaign defaults
    (which treat the ``link_script`` as churn), minus progress — a live
    run compressed through ``time_scale`` carries no virtual-time
    progress guarantee."""
    from repro.explore.monitors import default_monitor_specs

    return [
        spec for spec in default_monitor_specs(scenario, until)
        if spec["name"] != "progress"
    ]


def verify_recording(recording: Dict[str, Any]) -> Dict[str, Any]:
    """Replay a recording in-sim; report invariants and fidelity.

    Returns a report dict whose ``clean`` flag is True iff no invariant
    monitor fired *and* the sim reproduced the recording's effect
    stream exactly (same transitions, same order, same stamps).
    """
    from repro.explore.runner import run_controlled
    from repro.explore.schedule import ReplaySchedule

    derived = derive_replay(recording)
    simulations = []
    result = run_controlled(
        derived.scenario,
        derived.until,
        ReplaySchedule(derived.decisions),
        monitor_specs=derived.monitor_specs,
        on_simulation=simulations.append,
    )
    actual = simulations[0].effects
    divergence = _first_divergence(derived.expected, actual)
    return {
        "schema": recording["schema"],
        "runtime": recording.get("runtime"),
        "rows": len(recording["rows"]),
        "until": derived.until,
        "monitors": [spec["name"] for spec in derived.monitor_specs],
        "violation": (
            result.violation.to_dict() if result.violation else None
        ),
        "fidelity": {
            "expected": len(derived.expected),
            "actual": len(actual),
            "divergence": divergence,
        },
        "clean": result.violation is None and divergence is None,
    }


def _first_divergence(
    expected: List[Tuple[float, str, int]],
    actual: List[Tuple[float, str, int]],
) -> Optional[Dict[str, Any]]:
    """First place the replayed effect stream leaves the recorded one."""
    for index, (want, got) in enumerate(zip(expected, actual)):
        same = (
            want[1] == got[1]
            and want[2] == got[2]
            and abs(want[0] - got[0]) <= STAMP_TOLERANCE
        )
        if not same:
            return {"index": index, "expected": list(want), "actual": list(got)}
    if len(expected) != len(actual):
        index = min(len(expected), len(actual))
        return {
            "index": index,
            "expected": (
                list(expected[index]) if index < len(expected) else None
            ),
            "actual": list(actual[index]) if index < len(actual) else None,
        }
    return None
