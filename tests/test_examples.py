"""Smoke tests: the shipped examples run end-to-end.

Each example is executed as a subprocess (its own interpreter, exactly
as a user would run it); we check the exit code and a couple of
signature lines of its output.  The failure-locality demo is the slow
one and carries the ``slow`` marker.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: float = 120.0):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart_example():
    out = run_example("quickstart.py")
    assert "critical-section entries" in out
    assert "starved nodes            : none" in out
    assert "Per-node fairness" in out


def test_meeting_room_example():
    out = run_example("meeting_room_projector.py")
    assert "takes the projector" in out
    assert "latecomer" in out
    assert "Recoloring runs per node" in out


def table_rows(out: str, first):
    """The cells of the table rows whose first cell is in ``first``."""
    rows = []
    for line in out.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if cells[0] in first:
            rows.append(cells)
    return rows


def test_channel_arbitration_example():
    # The one claim behind ``jain_index``: every node gets uplink slots.
    out = run_example("channel_arbitration.py")
    rows = table_rows(out, ("alg2", "alg1-linial", "alg1-greedy"))
    assert [row[0] for row in rows] == ["alg2", "alg1-linial", "alg1-greedy"]
    for _, slots, per_node, jain, *_, starved in rows:
        assert int(per_node) > 0 and int(slots) > 0
        assert 0.0 < float(jain) <= 1.0
        assert starved == "-"


def test_mobility_models_tour_example():
    # The tour runs with the strict safety monitor on, so a violation
    # would have failed the run; every regime must also make progress.
    out = run_example("mobility_models_tour.py")
    rows = table_rows(out, ("alg2", "alg1-greedy"))
    assert [row[1] for row in rows] == [
        "static", "waypoint", "gauss-markov", "group (team of 5)",
        "gauss-markov",
    ]
    for row in rows:
        assert int(row[2]) > 0 and row[-1] == "-"


@pytest.mark.slow
def test_failure_locality_demo_example():
    out = run_example("failure_locality_demo.py", timeout=300.0)
    assert "starvation radius" in out
    assert "alg2" in out and "chandy-misra" in out
