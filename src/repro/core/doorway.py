"""Doorways (Chapter 4).

A doorway guards a module: a node *crosses* it by completing entry code
and *exits* it by completing exit code.  The guarantee: if ``p_i``
crosses before a neighbor ``p_j`` begins entering, ``p_j`` does not
cross until ``p_i`` exits.

Two entry disciplines (Figure 2):

* **synchronous** — cross when *all* neighbors are observed outside
  *simultaneously* (a conjunctive re-check on every update);
* **asynchronous** — cross once each neighbor has been observed outside
  *at least once* since we started waiting (per-neighbor sticky flags),
  which avoids the starvation a synchronous doorway allows.

Algorithm 1 uses four doorways per node — the recoloring double doorway
(asynchronous ``ADr`` around synchronous ``SDr``) and the fork-collection
double doorway with a return path (``ADf`` around ``SDf``), interleaved
as in Figure 5.  :class:`DoorwaySet` manages all of them for one node:
the ``L[]`` view of each neighbor's position, cross/exit broadcasts,
entry waiting, and the link-event bookkeeping of Figure 2's LinkUp
handlers.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, FrozenSet, Iterable, Set

from repro.core.base import NodeServices
from repro.core.messages import DoorwayCross, DoorwayExit
from repro.errors import ProtocolError


class Position(enum.Enum):
    """Last known position of a neighbor relative to one doorway."""

    CROSS = "cross"
    EXIT = "exit"


#: Doorway names of Algorithm 1, in pipeline order (Figure 5).
RECOLOR_ASYNC = "ADr"
RECOLOR_SYNC = "SDr"
FORK_ASYNC = "ADf"
FORK_SYNC = "SDf"
ALL_DOORWAYS = (RECOLOR_ASYNC, RECOLOR_SYNC, FORK_ASYNC, FORK_SYNC)
SYNC_DOORWAYS = frozenset({RECOLOR_SYNC, FORK_SYNC})

#: Their crossing and exit broadcasts, built once (messages are frozen);
#: a doorway under any other name builds its message per send.
_CROSS = {name: DoorwayCross(name) for name in ALL_DOORWAYS}
_EXIT = {name: DoorwayExit(name) for name in ALL_DOORWAYS}


class DoorwaySet:
    """All doorway state of one node.

    Args:
        node: host node services (send/broadcast/neighbors).
        on_crossed: callback fired (synchronously) when a pending entry
            completes; receives the doorway name.
        doorways: the doorway names managed (default: Algorithm 1's four).
        sync_doorways: which of them use the synchronous discipline.
    """

    def __init__(
        self,
        node: NodeServices,
        on_crossed: Callable[[str], None],
        doorways: Iterable[str] = ALL_DOORWAYS,
        sync_doorways: FrozenSet[str] = SYNC_DOORWAYS,
    ) -> None:
        self._node = node
        self._on_crossed = on_crossed
        self._names = tuple(doorways)
        self._sync = frozenset(sync_doorways)
        self._L: Dict[str, Dict[int, Position]] = {d: {} for d in self._names}
        self._behind: Dict[str, bool] = {d: False for d in self._names}
        self._waiting: Dict[str, bool] = {d: False for d in self._names}
        # For asynchronous doorways: neighbors observed outside at least
        # once since the current entry attempt began (sticky).
        self._seen_outside: Dict[str, Set[int]] = {d: set() for d in self._names}
        # Telemetry: None when the run is uninstrumented (the
        # live_registry idiom), so every probe site below is one
        # pointer test.  _crossed_at feeds the time-behind histogram.
        self._probes = getattr(node, "probes", None)
        self._crossed_at: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_behind(self, doorway: str) -> bool:
        """True iff this node is currently behind ``doorway``."""
        return self._behind[doorway]

    def is_waiting(self, doorway: str) -> bool:
        """True iff an entry attempt on ``doorway`` is pending."""
        return self._waiting[doorway]

    def peer_behind(self, doorway: str, peer: int) -> bool:
        """Our last-known view: is ``peer`` behind ``doorway``?"""
        return self._L[doorway].get(peer, Position.EXIT) is Position.CROSS

    def behind_set(self) -> FrozenSet[str]:
        """Doorways this node is behind (the ``L[i]`` part of Hello)."""
        return frozenset(d for d in self._names if self._behind[d])

    def peers_behind(self, doorway: str) -> Set[int]:
        """Current neighbors we believe are behind ``doorway``."""
        return {
            j
            for j in self._node.neighbors()
            if self.peer_behind(doorway, j)
        }

    # ------------------------------------------------------------------
    # Entry / exit
    # ------------------------------------------------------------------
    def start_entry(self, doorway: str) -> None:
        """Begin the entry code; crossing may complete immediately."""
        if self._behind[doorway]:
            raise ProtocolError(
                f"node {self._node.node_id} re-entering doorway {doorway} "
                "while already behind it"
            )
        self._waiting[doorway] = True
        if doorway not in self._sync:
            self._seen_outside[doorway] = {
                j
                for j in self._node.neighbors()
                if not self.peer_behind(doorway, j)
            }
        self._try_cross(doorway)

    def exit(self, doorway: str) -> None:
        """Run the exit code: broadcast and clear our position."""
        if not self._behind[doorway]:
            return
        self._behind[doorway] = False
        if self._probes is not None:
            now = self._node.now
            self._probes.note_doorway_exit(
                doorway, now - self._crossed_at.pop(doorway, now)
            )
        self._node.broadcast(_EXIT.get(doorway) or DoorwayExit(doorway))

    def exit_all(self) -> None:
        """Exit every doorway we are behind and abort pending entries.

        Used by a moving node arriving in a new neighborhood (Algorithm
        3 Line 52): it notifies all neighbors it is outside everything.
        """
        for doorway in self._names:
            self._waiting[doorway] = False
            self._seen_outside[doorway].clear()
            if self._behind[doorway]:
                self._behind[doorway] = False
                if self._probes is not None:
                    now = self._node.now
                    self._probes.note_doorway_exit(
                        doorway, now - self._crossed_at.pop(doorway, now)
                    )
                self._node.broadcast(
                    _EXIT.get(doorway) or DoorwayExit(doorway)
                )

    # ------------------------------------------------------------------
    # Upcalls from the host algorithm
    # ------------------------------------------------------------------
    def note_cross(self, src: int, doorway: str) -> None:
        """Record that ``src`` crossed ``doorway``."""
        self._L[doorway][src] = Position.CROSS

    def note_exit(self, src: int, doorway: str) -> None:
        """Record that ``src`` exited ``doorway``; retry pending entries."""
        self._L[doorway][src] = Position.EXIT
        if self._waiting[doorway]:
            if doorway not in self._sync:
                self._seen_outside[doorway].add(src)
            self._try_cross(doorway)
        self._retry_sync_entries()

    def on_link_down(self, peer: int) -> None:
        """Forget a departed neighbor; blocked entries may now complete."""
        for doorway in self._names:
            self._L[doorway].pop(peer, None)
            self._seen_outside[doorway].discard(peer)
        self.retry_pending()

    def on_new_neighbor_while_static(self, peer: int) -> None:
        """Figure 2, LinkUp while static: the newcomer is outside everything.

        The newcomer genuinely is outside: a moving node exits all
        doorways when it arrives in a new neighborhood.
        """
        for doorway in self._names:
            self._L[doorway][peer] = Position.EXIT
            if self._waiting[doorway] and doorway not in self._sync:
                self._seen_outside[doorway].add(peer)
        # A new neighbor can never *unblock* a sync entry, so no retry.

    def on_hello(self, peer: int, behind_doorways: FrozenSet[str]) -> None:
        """Initialize ``L[peer]`` from a static neighbor's Hello."""
        for doorway in self._names:
            if doorway in behind_doorways:
                self._L[doorway][peer] = Position.CROSS
            else:
                self._L[doorway][peer] = Position.EXIT

    def retry_pending(self) -> None:
        """Re-evaluate every pending entry (after neighbor-set changes)."""
        for doorway in self._names:
            if self._waiting[doorway]:
                self._try_cross(doorway)

    # ------------------------------------------------------------------
    def _retry_sync_entries(self) -> None:
        # An exit observed on one doorway cannot unblock a *different*
        # doorway, but the common case — several pending doorways — is
        # cheap to re-check and keeps the logic obviously safe.
        for doorway in self._names:
            if self._waiting[doorway]:
                self._try_cross(doorway)

    def _satisfied(self, doorway: str) -> bool:
        neighbors = self._node.neighbors()
        if doorway in self._sync:
            return all(not self.peer_behind(doorway, j) for j in neighbors)
        seen = self._seen_outside[doorway]
        return all(j in seen for j in neighbors)

    def _try_cross(self, doorway: str) -> None:
        if not self._waiting[doorway] or not self._satisfied(doorway):
            return
        self._waiting[doorway] = False
        self._seen_outside[doorway].clear()
        self._behind[doorway] = True
        if self._probes is not None:
            self._probes.note_doorway_cross(doorway)
            self._crossed_at[doorway] = self._node.now
        self._node.broadcast(_CROSS.get(doorway) or DoorwayCross(doorway))
        self._on_crossed(doorway)
