"""Full-scenario bit-identity: ladder scheduler vs the heap oracle.

Fixed-seed runs across the exploration scenario families must produce
byte-for-byte identical RunReports whether the engine's pending set is
the ladder queue or the binary heap of tests/oracles/.
This is the end-to-end complement to the structure-level property tests
in test_schedqueue.py: anything the queue swap perturbed — delivery
order, timer firing, crash retimes, mobility steps — would surface here
as a report diff.
"""

import dataclasses

import pytest

from oracles.heap_queue import heap_simulator
from repro.explore.scenarios import scenario_pool
from repro.harness.config_io import config_from_dict
from repro.runtime.simulation import Simulation


def _pool_entry(algorithm, family):
    for entry in scenario_pool(algorithm, 12, seed=0):
        if entry["family"] == family:
            return entry
    raise AssertionError(f"family {family!r} missing from pool")


def _use_heap_oracle(monkeypatch):
    """Every Simulation built from here on runs on the heap oracle."""
    monkeypatch.setattr("repro.runtime.simulation.Simulator", heap_simulator)


def _report_json(config, until):
    # sched_ops probe values describe the queue structure, so the
    # comparison runs with telemetry off (reports already strip the
    # engine-level scheduler sub-dict).
    run_config = dataclasses.replace(config, telemetry=False)
    result = Simulation(run_config).run(until=until)
    return result.engine["scheduler"]["discipline"], result.report().to_json()


@pytest.mark.parametrize(
    "algorithm,family",
    [
        ("alg1-linial", "fig6"),
        ("alg2", "crash-line"),
        ("alg2", "mobility-waypoint"),
        ("alg2", "static-ring"),
    ],
)
def test_scenario_families_are_bit_identical(algorithm, family, monkeypatch):
    entry = _pool_entry(algorithm, family)
    config = config_from_dict(entry["scenario"])
    until = entry["until"]
    ladder_discipline, ladder = _report_json(config, until)
    _use_heap_oracle(monkeypatch)
    heap_discipline, heap = _report_json(config, until)
    assert (ladder_discipline, heap_discipline) == ("ladder", "heap")
    assert ladder == heap
