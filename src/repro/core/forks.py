"""Per-node fork bookkeeping shared by Algorithms 1 and 6.

A fork is a token shared by the two endpoints of a live link; holding
it means holding the neighbor's permission to eat.  Forks are created
at link formation (owned by the static endpoint) and destroyed at link
failure.  ``at[j]`` is the paper's boolean "I hold the fork shared with
p_j"; ``S`` is the set of neighbors whose fork requests are suspended.

Next to ``at[]`` the table maintains ``held = {j : at[j]}``, updated by
every write, so the paper's macros become C-level set algebra over the
current neighbor set ``N`` rather than per-neighbor scans: ``all-forks``
is ``held ⊇ N``, and ``all-low-forks`` / the request lists are built by
:class:`~repro.core.fork_collection.ForkProtocol` from ``held`` and the
host's low set.  A peer outside ``N`` is never judged, whatever ``at[]``
still says about it; a peer in ``N`` without an ``at[]`` entry (its
link handshake has not run yet) counts as not held — exactly what the
per-neighbor scans in ``tests/oracles/fork_scan.py`` decide.
"""

from __future__ import annotations

from typing import Dict, Set


class ForkTable:
    """The ``at[]`` array, its ``held`` index and the suspended set ``S``."""

    __slots__ = ("_at", "held", "suspended")

    def __init__(self) -> None:
        self._at: Dict[int, bool] = {}
        #: Peers whose fork we hold — ``{j : at[j]}``, kept in step with
        #: ``_at`` by every write below.  Read-only for everyone else.
        self.held: Set[int] = set()
        self.suspended: Set[int] = set()

    # ------------------------------------------------------------------
    # The at[] predicate
    # ------------------------------------------------------------------
    def holds(self, peer: int) -> bool:
        """``at[peer]`` — True iff we hold the fork shared with peer."""
        return peer in self.held

    def set_holds(self, peer: int, value: bool) -> None:
        self._at[peer] = value
        if value:
            self.held.add(peer)
        else:
            self.held.discard(peer)

    # ------------------------------------------------------------------
    # Link lifecycle
    # ------------------------------------------------------------------
    def link_created(self, peer: int, we_are_static: bool) -> None:
        """Fork created with the link, owned by the static endpoint."""
        self.set_holds(peer, we_are_static)
        self.suspended.discard(peer)

    def link_destroyed(self, peer: int) -> None:
        """Fork destroyed with the link."""
        self._at.pop(peer, None)
        self.held.discard(peer)
        self.suspended.discard(peer)
