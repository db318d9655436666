"""Delta-debugging of violating runs.

:func:`shrink_repro` minimizes a repro file while preserving *which*
monitor fires: it truncates the horizon to just past the violation,
then ddmin-reduces each timed scenario list of
:data:`~repro.explore.repro_file.TIMED_ROWS` — the crash plan, the
scripted-hunger entries, the ``link_script`` rows — and then the
decision trace (a removed decision replays as its deterministic
default, so partial traces stay valid).  Every candidate is validated
by an actual replay — a shrink step is kept only if the same monitor
still fires — and the kept repro's recorded violation is refreshed, so
the output replays green through :func:`repro.explore.runner.replay`.

The :meth:`~repro.explore.repro_file.ReproFile.size` metric (decisions
+ timed scenario rows + horizon) decreases monotonically across
accepted steps; the shrink tests assert this.
"""

from __future__ import annotations

import copy
import math
from typing import Any, Callable, List, Tuple

from repro.explore.repro_file import TIMED_ROWS, ReproFile, timed_rows
from repro.explore.runner import check_repro

#: Horizon margin kept past the violation time when truncating.
_UNTIL_MARGIN = 2.0


def _ddmin(items: List[Any],
           test: Callable[[List[Any]], bool]) -> List[Any]:
    """Greedy ddmin: remove ever-smaller chunks while ``test`` passes."""
    items = list(items)
    if not items:
        return items
    chunk = max(1, len(items) // 2)
    while True:
        removed = False
        index = 0
        while index < len(items):
            candidate = items[:index] + items[index + chunk:]
            if len(candidate) < len(items) and test(candidate):
                items = candidate
                removed = True
            else:
                index += chunk
        if chunk == 1:
            if not removed:
                return items
        else:
            chunk = max(1, chunk // 2)


def _clone(repro: ReproFile) -> ReproFile:
    return ReproFile.from_dict(copy.deepcopy(repro.to_dict()))


def shrink_repro(repro: ReproFile,
                 max_replays: int = 300) -> Tuple[ReproFile, int]:
    """Minimize a repro file; returns ``(shrunk, replays_used)``.

    ``max_replays`` bounds the number of candidate replays; when the
    budget runs out, the best repro found so far is returned (still
    guaranteed to fail its monitor — every kept candidate was
    validated).
    """
    target = repro.violation.get("monitor")
    best = _clone(repro)
    original = {
        "size": repro.size(),
        "decisions": len(repro.decisions),
        "until": repro.until,
    }
    replays = 0

    def try_candidate(candidate: ReproFile) -> bool:
        nonlocal replays, best
        if replays >= max_replays:
            return False
        replays += 1
        result = check_repro(candidate, monitor=target)
        if result is None:
            return False
        candidate.violation = result.violation.to_dict()
        best = candidate
        return True

    # --- 1. horizon: cut to just past the violation --------------------
    violation_time = float(best.violation.get("time", best.until))
    truncated = math.ceil(violation_time + _UNTIL_MARGIN)
    if truncated < best.until:
        candidate = _clone(best)
        candidate.until = float(truncated)
        try_candidate(candidate)

    # --- 2. timed scenario rows: crashes, hunger, link rows ------------
    for key, (_, rebuild) in TIMED_ROWS.items():
        def test_rows(kept: List[Any], key=key, rebuild=rebuild) -> bool:
            candidate = _clone(best)
            candidate.scenario[key] = rebuild(kept)
            return try_candidate(candidate)

        _ddmin(timed_rows(best.scenario, key), test_rows)

    # --- 3. decision trace ----------------------------------------------
    if best.decisions:
        def test_decisions(kept: List[Any]) -> bool:
            candidate = _clone(best)
            candidate.decisions = [list(d) for d in kept]
            return try_candidate(candidate)

        _ddmin(list(best.decisions), test_decisions)

    if best.size() < original["size"]:
        best.shrunk_from = original
    return best, replays
