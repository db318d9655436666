"""Fairness of critical-section allocations.

Starvation freedom says everyone *eventually* eats; fairness asks how
evenly turns are distributed.  The examples report Jain's index.
"""

from __future__ import annotations

from typing import Sequence


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: (Σx)² / (n · Σx²), in (0, 1].

    1.0 means perfectly even; 1/n means one node took everything.
    All-zero allocations count as perfectly fair (nothing was unfairly
    distributed).
    """
    data = list(values)
    if not data:
        raise ValueError("jain_index of empty sequence")
    if any(v < 0 for v in data):
        raise ValueError("jain_index requires non-negative values")
    total = sum(data)
    if total == 0:
        return 1.0
    return total * total / (len(data) * sum(v * v for v in data))
