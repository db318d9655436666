"""Protocol messages of Algorithms 1-7.

Naming follows the paper where it has a name; the ``Hello`` message is
the pair "(update-color(color[i]), L[i])" that a static node sends to a
newly arrived neighbor in Algorithm 3 Line 46.

Messages are frozen and compared by value, so the payload-free ones are
module constants (``FORK_REQUEST``, ``FORK_GRANT``, ``SWITCH``...): a
send pays a global lookup instead of a dataclass construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from repro.net.messages import Message

# ----------------------------------------------------------------------
# Doorway messages (Chapter 4).  ``doorway`` names which of the node's
# doorways the broadcast refers to: "ADr", "SDr", "ADf" or "SDf".
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DoorwayCross(Message):
    """Broadcast when a node crosses (completes the entry code of) a doorway."""

    doorway: str


@dataclass(frozen=True, slots=True)
class DoorwayExit(Message):
    """Broadcast when a node exits a doorway."""

    doorway: str


# ----------------------------------------------------------------------
# Fork collection messages (Algorithms 1 and 6).
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ForkRequest(Message):
    """``req`` — ask the neighbor for the shared fork."""


@dataclass(frozen=True, slots=True)
class ForkGrant(Message):
    """``(fork, flag)`` — hand over the shared fork.

    ``flag`` is the "I want it back" bit set by a sender that grants a
    fork to a higher-priority neighbor while itself still competing.
    """

    flag: bool


FORK_REQUEST = ForkRequest()
FORK_GRANT = ForkGrant(flag=False)
#: The grant with the "I want it back" flag set.
FORK_GRANT_BACK = ForkGrant(flag=True)


# ----------------------------------------------------------------------
# Color bookkeeping (Algorithm 1).
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class UpdateColor(Message):
    """``update-color(c)`` — announce the sender's (new) color."""

    color: int


@dataclass(frozen=True, slots=True)
class Hello(Message):
    """State transfer to a newly arrived neighbor (Algorithm 3 Line 46).

    Carries the static node's color (None if it has not chosen one yet)
    and the set of doorways it is currently behind, so the newcomer can
    initialize its ``L[]`` view consistently.
    """

    color: Optional[int]
    behind_doorways: FrozenSet[str] = field(default_factory=frozenset)


# ----------------------------------------------------------------------
# Recoloring module messages (Algorithms 2, 4, 5).
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RecoloringRound(Message):
    """Marker base for per-round coloring-procedure messages.

    Algorithm 1 NACKs any such message it receives while not
    participating in recoloring (Lines 40-43), regardless of which
    coloring procedure produced it.
    """


@dataclass(frozen=True, slots=True)
class GraphExchange(RecoloringRound):
    """One greedy-coloring round: the sender's edge set G (Algorithm 4).

    ``edges`` is a bitmask over the process-wide edge index of
    :mod:`repro.core.coloring.greedy` (``encode_edges`` /
    ``decode_edges``), whose bits stand for canonical (min, max)
    node-id pairs.  ``finished`` is the flag of Line 71; ``iteration``
    pairs rounds between asynchronous peers.

    Bit positions mean nothing in another process, so a pickled
    exchange (the live/ socket codec) carries the decoded
    edge tuple and is re-encoded through the receiver's index.
    """

    iteration: int
    edges: int
    finished: bool = False

    def __reduce__(self):
        # Imported here: the greedy module imports this one.
        from repro.core.coloring.greedy import decode_edges, graph_exchange

        return (
            graph_exchange,
            (self.iteration, tuple(decode_edges(self.edges)), self.finished),
        )


@dataclass(frozen=True, slots=True)
class TempColor(RecoloringRound):
    """One Linial-coloring round: the sender's temporary color (Algorithm 5)."""

    phase: int
    value: int


@dataclass(frozen=True, slots=True)
class RecolorNack(Message):
    """NACK sent by a node not participating in recoloring (Lines 40-43).

    Tells the sender to drop us from its participant set R.  Echoes the
    round index of the message being refused.
    """

    iteration: int


# ----------------------------------------------------------------------
# Algorithm 2 (Chapter 6) priority messages.
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Notification(Message):
    """``notification`` — sent to all neighbors upon becoming hungry."""


@dataclass(frozen=True, slots=True)
class Switch(Message):
    """``switch`` — the sender lowers its priority below the receiver."""


NOTIFICATION = Notification()
SWITCH = Switch()
