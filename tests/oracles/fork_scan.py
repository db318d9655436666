"""The per-neighbor fork-macro scans the maintained sets replaced.

:class:`repro.core.forks.ForkTable` keeps ``held`` next to ``at[]`` and
:class:`repro.core.fork_collection.ForkProtocol` evaluates the macros
as set algebra over it.  These are the O(degree) scans over the
neighbor set they replaced (``self`` became ``table``), kept as the
reference ``tests/test_fork_predicates.py`` checks against.  They read
``at[j]`` neighbor by neighbor, as ``j in table.held``, and never use
set algebra.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable

from repro.core.forks import ForkTable


def all_forks(table: ForkTable, neighbors: FrozenSet[int]) -> bool:
    """True iff we hold the fork of every current neighbor."""
    return all(j in table.held for j in neighbors)


def all_low_forks(
    table: ForkTable, neighbors: FrozenSet[int], is_low: Callable[[int], bool]
) -> bool:
    """True iff we hold every fork shared with a *low* neighbor.

    A low neighbor is one with higher priority (smaller color in
    Algorithm 1, ``higher[j]`` true in Algorithm 6); the predicate
    is injected by the host algorithm.
    """
    return all(j in table.held for j in neighbors if is_low(j))


def missing(
    table: ForkTable, neighbors: FrozenSet[int], want: Callable[[int], bool]
) -> Iterable[int]:
    """Neighbors matching ``want`` whose fork we do not hold (sorted)."""
    return sorted(
        j for j in neighbors if want(j) and j not in table.held
    )
