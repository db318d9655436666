"""Randomized coloring procedure (the Chapter 7 extension).

The discussion chapter observes that Kuhn–Wattenhofer's randomized
color reduction "can easily substitute the coloring procedure used by
the recoloring module, leading to an algorithm for local mutual
exclusion with probabilistic properties".  This module implements that
substitution with the classic Luby-style trial scheme such algorithms
build on:

Per round, every undecided participant draws a uniformly random
candidate from its palette minus the colors neighbors have already
*locked*, and announces it.  A node locks its candidate when no
neighbor announced the same value that round; it then sends one final
``decided`` announcement and leaves the exchange.  With palette size
``2 * (delta + 1)`` a trial succeeds with probability > 1/2, so the
expected round count is O(log k) for k concurrent participants; a
deterministic fallback (a unique out-of-palette color keyed by node id)
caps the worst case.

The *final* coloring is always legal, not just probably: a node locks
a color only when no neighbor announced or previously locked it, and
two neighbors announcing the same candidate both retry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.core.coloring.session import (
    ColoringProcedure,
    ColoringSession,
    FinishFn,
    RoundInput,
    SendFn,
)
from repro.core.messages import RecoloringRound
from repro.errors import ConfigurationError, ProtocolError


@dataclass(frozen=True)
class Candidate(RecoloringRound):
    """One randomized-coloring round message.

    ``decided`` marks the sender's final color: the receiver forbids
    the value permanently and drops the sender from the exchange.
    """

    round_index: int
    value: int
    decided: bool = False


class RandomizedSession(ColoringSession):
    """One randomized recoloring run."""

    def __init__(
        self,
        node_id: int,
        peers: Set[int],
        send: SendFn,
        finish: FinishFn,
        palette_size: int,
        rng,
        max_rounds: int,
    ) -> None:
        super().__init__(node_id, peers, send, finish)
        self._palette_size = palette_size
        self._rng = rng
        self._max_rounds = max_rounds
        self._forbidden: Set[int] = set()
        self._candidate: Optional[int] = None

    # ------------------------------------------------------------------
    def _draw(self) -> int:
        available = [
            c for c in range(self._palette_size) if c not in self._forbidden
        ]
        if not available:  # pragma: no cover - palette sized to prevent this
            raise ProtocolError(
                f"palette of size {self._palette_size} exhausted"
            )
        return available[self._rng.randrange(len(available))]

    def _start(self) -> None:
        if not self.peers:
            self._finish(0)
            return
        self._trial_round()

    def _trial_round(self) -> None:
        if self.rounds_executed >= self._max_rounds:
            # Probabilistic budget exhausted: take the guaranteed-unique
            # out-of-palette fallback color.
            self._decide(self._palette_size + self.node_id)
            return
        self._candidate = self._draw()
        self._send_round(Candidate(self.rounds_executed, self._candidate))

    def _complete_round(self, inputs: List[RoundInput]) -> None:
        conflicted = False
        for src, message in inputs:
            if message.decided:
                self._forbidden.add(message.value)
                self.peers.discard(src)
            elif message.value == self._candidate:
                conflicted = True
        # A neighbor may have locked our candidate in an earlier round
        # whose announcement raced our draw: re-check forbidden too.
        assert self._candidate is not None
        if conflicted or self._candidate in self._forbidden:
            if self.peers:
                self._trial_round()
            else:
                # Everyone else is done; a fresh draw cannot conflict.
                self._decide(self._draw(), announce=False)
            return
        self._decide(self._candidate)

    def _decide(self, value: int, announce: bool = True) -> None:
        if announce:
            for peer in sorted(self.peers):
                self._send(peer, Candidate(self.rounds_executed, value, True))
        self._finish(value)


class RandomizedColoring(ColoringProcedure):
    """Factory for randomized recoloring sessions.

    Args:
        delta: maximum degree; the palette holds ``2 * (delta + 1)``
            colors so each trial succeeds with probability > 1/2.
        rng: a ``random.Random`` (one shared stream keeps runs
            reproducible under a fixed seed).
        max_rounds: trials before the deterministic fallback
            (default ``10 + delta``).
    """

    name = "randomized"

    def __init__(self, delta: int, rng, max_rounds: Optional[int] = None) -> None:
        if delta < 1:
            raise ConfigurationError(f"delta must be >= 1, got {delta}")
        self.delta = delta
        self.palette_size = 2 * (delta + 1)
        self._rng = rng
        self.max_rounds = max_rounds if max_rounds is not None else 10 + delta

    def create_session(
        self, node_id: int, peers: Set[int], send: SendFn, finish: FinishFn
    ) -> RandomizedSession:
        return RandomizedSession(
            node_id, peers, send, finish,
            palette_size=self.palette_size,
            rng=self._rng,
            max_rounds=self.max_rounds,
        )

    def max_color(self) -> Optional[int]:
        return None  # fallback band is id-dependent
