"""Seeded scenario generation for fuzz campaigns.

Scenarios are plain JSON dicts in the :mod:`repro.harness.config_io`
format — never live objects — so a failing case drops into a repro
file verbatim.  Each *family* stresses one part of the protocol:

``static-line`` / ``static-ring``
    Contended static topologies with staggered scripted hunger — the
    bread-and-butter workload for exclusion, fork-uniqueness,
    doorway-entry (staggered hunger is what exposes ``alg1-nodoorway``:
    a later node crosses while an earlier cross is visible) and
    stale-priority (a permanently-hungry node next to thinkers exposes
    ``alg2-nonotify``).
``crash-line``
    A mid-run crash in a contended line; exercises crash-timing
    choices and the failure-locality progress rules.
``mobility-waypoint``
    Random-waypoint movers over a grid; exercises the link-dynamics
    handlers (Algorithm 3 / Algorithm 7).
``fig6`` (Algorithm 1 family only)
    The paper's Figure 6 situation: a crashed high neighbor plus a
    departing lowest-color neighbor, which is exactly the trigger of
    the SDf return path — the run that exposes ``alg1-noreturn``.

All generation is driven by one :class:`random.Random` seeded from the
campaign seed, so a pool is reproducible from ``(algorithm, count,
seed)`` alone.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List


def _positions_line(n: int) -> List[List[float]]:
    return [[float(i), 0.0] for i in range(n)]


def _positions_ring(n: int) -> List[List[float]]:
    # Adjacent spacing just under the unit radio range, so the ring is
    # a cycle graph (next-nearest chords stay out of range for n >= 5).
    radius = 0.95 / (2.0 * math.sin(math.pi / n))
    return [
        [radius * math.cos(2 * math.pi * i / n),
         radius * math.sin(2 * math.pi * i / n)]
        for i in range(n)
    ]


def _staggered_hunger(n: int, rng: random.Random,
                      until: float) -> Dict[str, List[float]]:
    """Every node repeatedly hungry, phases offset by >= one message bound.

    The offsets stagger doorway crossings instead of synchronizing
    them, which is the access pattern the doorway-entry monitor needs.
    """
    period = 4.0 + rng.random() * 2.0
    return {
        str(node): [
            round(1.0 + node * 1.5 + k * period, 3)
            for k in range(int(until / period))
        ]
        for node in range(n)
    }


def _base(algorithm: str, positions: List[List[float]], seed: int,
          **extra: Any) -> Dict[str, Any]:
    scenario: Dict[str, Any] = {
        "algorithm": algorithm,
        "positions": positions,
        "seed": seed,
        # Telemetry gives campaigns the explore.* probe counters for
        # free; it adds no protocol events.
        "telemetry": True,
    }
    scenario.update(extra)
    return scenario


def _static_line(algorithm: str, rng: random.Random) -> Dict[str, Any]:
    n = rng.randrange(4, 7)
    until = 80.0
    return {
        "family": "static-line",
        "until": until,
        "scenario": _base(
            algorithm, _positions_line(n), seed=rng.randrange(1 << 16),
            scripted_hunger=_staggered_hunger(n, rng, until),
        ),
    }


def _static_ring(algorithm: str, rng: random.Random) -> Dict[str, Any]:
    n = rng.randrange(5, 7)
    until = 80.0
    return {
        "family": "static-ring",
        "until": until,
        "scenario": _base(
            algorithm, _positions_ring(n), seed=rng.randrange(1 << 16),
            scripted_hunger=_staggered_hunger(n, rng, until),
        ),
    }


def _asym_line(algorithm: str, rng: random.Random) -> Dict[str, Any]:
    """Only even nodes ever get hungry; odd nodes think forever.

    A permanently-thinking neighbor can only lose its standing
    priority through the notification protocol — the workload that
    exposes ``alg2-nonotify`` (all-hungry workloads mask it, because
    exit-CS switches resolve priorities anyway).
    """
    n = rng.randrange(4, 6)
    until = 60.0
    period = 5.0 + rng.random() * 2.0
    hunger = {
        str(node): [
            round(1.0 + node * 0.7 + k * period, 3)
            for k in range(int(until / period))
        ]
        for node in range(0, n, 2)
    }
    return {
        "family": "asym-line",
        "until": until,
        "scenario": _base(
            algorithm, _positions_line(n), seed=rng.randrange(1 << 16),
            scripted_hunger=hunger,
        ),
    }


def _crash_line(algorithm: str, rng: random.Random) -> Dict[str, Any]:
    n = rng.randrange(5, 7)
    until = 100.0
    victim = rng.randrange(n)
    return {
        "family": "crash-line",
        "until": until,
        "scenario": _base(
            algorithm, _positions_line(n), seed=rng.randrange(1 << 16),
            scripted_hunger=_staggered_hunger(n, rng, until),
            crashes=[[round(20.0 + rng.random() * 20.0, 3), victim]],
        ),
    }


def _mobility_waypoint(algorithm: str, rng: random.Random) -> Dict[str, Any]:
    n = 6
    until = 100.0
    movers = sorted(rng.sample(range(n), 2))
    return {
        "family": "mobility-waypoint",
        "until": until,
        "scenario": _base(
            algorithm, _positions_line(n), seed=rng.randrange(1 << 16),
            scripted_hunger=_staggered_hunger(n, rng, until),
            mobility=[{
                "kind": "waypoint",
                "nodes": movers,
                "params": {
                    "width": float(n), "height": 2.0,
                    "speed_range": [0.5, 1.0],
                    "pause_range": [2.0, 6.0],
                },
            }],
        ),
    }


def _fig6(algorithm: str, rng: random.Random) -> Dict[str, Any]:
    """Figure 6: crashed p3, lowest-color p2 departs mid-collection.

    A legal coloring with p2 lowest means p1 behind ``SDf`` routinely
    lacks p2's fork when the move severs the 1-2 link — the exact
    trigger of lines 59-60.  The move time varies so different runs
    catch the pipeline in different phases.
    """
    move_at = round(40.0 + rng.random() * 60.0, 3)
    until = move_at + 40.0
    hunger = {
        "3": [1.0],
        "0": [round(t * 4.0 + 25.0, 3) for t in range(int(until / 4.0))],
        "1": [round(t * 4.0 + 25.0, 3) for t in range(int(until / 4.0))],
        "2": [round(t * 4.0 + 25.0, 3) for t in range(int(until / 4.0))],
    }
    return {
        "family": "fig6",
        "until": until,
        "scenario": _base(
            algorithm, _positions_line(4), seed=rng.randrange(1 << 16),
            initial_colors={"0": 2, "1": 1, "2": 0, "3": 3},
            scripted_hunger=hunger,
            crashes=[[20.0, 3]],
            mobility=[{
                "kind": "scripted",
                "nodes": [2],
                "params": {"moves": [[move_at, 2.0, 10.0, 0.0]]},
            }],
        ),
    }


#: family name -> generator; order fixes the round-robin in a pool.
_FAMILIES = {
    "static-line": _static_line,
    "asym-line": _asym_line,
    "static-ring": _static_ring,
    "crash-line": _crash_line,
    "mobility-waypoint": _mobility_waypoint,
    "fig6": _fig6,
}


def build_scenario(family: str, algorithm: str,
                   seed: int = 0) -> Dict[str, Any]:
    """Generate one named-family scenario deterministically.

    The entry point the live runtime uses to pick up the exact same
    scenario shapes the fuzz campaigns run, so a live execution and its
    in-sim replay start from one JSON description.  Returns the same
    ``{"family", "until", "scenario"}`` rows as :func:`scenario_pool`.
    """
    try:
        generator = _FAMILIES[family]
    except KeyError:
        raise KeyError(
            f"unknown scenario family {family!r}; "
            f"available: {sorted(_FAMILIES)}"
        ) from None
    return generator(algorithm, random.Random(seed))


def scenario_pool(algorithm: str, count: int,
                  seed: int = 0) -> List[Dict[str, Any]]:
    """Generate ``count`` scenarios for one algorithm, round-robin over
    the applicable families.

    Returns ``[{"family", "until", "scenario"}, ...]``; every
    ``scenario`` value is a :func:`config_from_dict`-ready JSON dict.
    """
    rng = random.Random(seed)
    families = [
        name for name, _ in _FAMILIES.items()
        if name != "fig6" or algorithm.startswith("alg1")
    ]
    pool = []
    for k in range(count):
        family = families[k % len(families)]
        pool.append(_FAMILIES[family](algorithm, rng))
    return pool
