"""Linial-style fast coloring procedure (Algorithm 5, Section 5.4.2).

Per round, every participant sends its temporary color to the peers in
R, receives theirs, and uses the round's cover-free family to pick a
new temporary color whose set element is missed by all neighbors' sets.
The number of rounds is the length of the shared reduction schedule —
Theta(log* n) — after which colors live in a range of O(delta^2 *
polylog(delta)) (the paper's O(delta^2) up to the log factor inherent
in explicit constructions).

The procedure assumes all nodes know ``n`` (the ID space) and ``delta``
(the maximum degree) so they derive the identical schedule; this is the
paper's stated assumption for this variant.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.coloring.cover_free import final_color_range, reduction_schedule
from repro.core.coloring.session import (
    ColoringProcedure,
    ColoringSession,
    FinishFn,
    SendFn,
)
from repro.core.messages import TempColor
from repro.errors import ConfigurationError


class LinialSession(ColoringSession):
    """One Linial recoloring run (the loop of Algorithm 5)."""

    def __init__(
        self,
        node_id: int,
        peers: Set[int],
        send: SendFn,
        finish: FinishFn,
        schedule,
    ) -> None:
        super().__init__(node_id, peers, send, finish)
        self._schedule = schedule
        self.temp_color = node_id  # Line 63: temp-color := ID
        self.phase = 0

    def _start(self) -> None:
        if not self.peers:
            self._finish(0)  # Line 71: R empty -> color 0
            return
        if not self._schedule:
            # The ID space is already no larger than the target range;
            # the ID itself is a legal small color.
            self._finish(self.temp_color)
            return
        self._send_phase()

    def _send_phase(self) -> None:
        self._send_round(TempColor(self.phase, self.temp_color))

    def _complete_round(self, inputs) -> None:
        if not self.peers:
            self._finish(0)  # R drained mid-loop (Line 70 guard)
            return
        family = self._schedule[self.phase]
        neighbor_values = [msg.value for _, msg in inputs]
        self.temp_color = family.fresh_element(self.temp_color, neighbor_values)
        self.phase += 1
        if self.phase >= len(self._schedule):
            self._finish(self.temp_color)
            return
        self._send_phase()


class LinialColoring(ColoringProcedure):
    """Factory for :class:`LinialSession`.

    Args:
        id_space: size of the node-ID space (the paper's n).
        delta: maximum node degree the family must tolerate.
    """

    name = "linial"

    def __init__(self, id_space: int, delta: int) -> None:
        if id_space < 1:
            raise ConfigurationError(f"id_space must be >= 1, got {id_space}")
        if delta < 1:
            raise ConfigurationError(f"delta must be >= 1, got {delta}")
        self.id_space = id_space
        self.delta = delta
        self.schedule = reduction_schedule(id_space, delta)

    @property
    def rounds(self) -> int:
        """Round count of every session — the measured log* n quantity."""
        return len(self.schedule)

    def create_session(
        self, node_id: int, peers: Set[int], send: SendFn, finish: FinishFn
    ) -> LinialSession:
        if node_id >= self.id_space:
            raise ConfigurationError(
                f"node id {node_id} outside configured id space {self.id_space}"
            )
        return LinialSession(node_id, peers, send, finish, self.schedule)

    def max_color(self) -> Optional[int]:
        return final_color_range(self.id_space, self.delta) - 1
