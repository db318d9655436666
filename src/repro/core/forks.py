"""Per-node fork bookkeeping shared by Algorithms 1 and 6.

A fork is a token shared by the two endpoints of a live link; holding
it means holding the neighbor's permission to eat.  Forks are created
at link formation (owned by the static endpoint) and destroyed at link
failure.  The paper's boolean array ``at[j]`` ("I hold the fork shared
with p_j") is kept as the set ``held = {j : at[j]}``; ``S`` is the set
of neighbors whose fork requests are suspended.

The paper's macros are then C-level set algebra over the current
neighbor set ``N`` rather than per-neighbor scans: ``all-forks`` is
``held ⊇ N``, and ``all-low-forks`` / the request lists are built by
:class:`~repro.core.fork_collection.ForkProtocol` from ``held`` and the
host's low set.  A peer outside ``N`` is never judged, whatever
``held`` still says about it; a peer in ``N`` whose link handshake has
not run yet is not in ``held`` — exactly what the per-neighbor scans in
``tests/oracles/fork_scan.py`` decide.
"""

from __future__ import annotations

from typing import Set


class ForkTable:
    """The ``at[]`` array as the set ``held``, and the suspended set ``S``."""

    __slots__ = ("held", "suspended")

    def __init__(self) -> None:
        #: Peers whose fork we hold — ``{j : at[j]}``.  Written by the
        #: methods below; read-only for everyone else.
        self.held: Set[int] = set()
        self.suspended: Set[int] = set()

    # ------------------------------------------------------------------
    # The at[] predicate
    # ------------------------------------------------------------------
    def holds(self, peer: int) -> bool:
        """``at[peer]`` — True iff we hold the fork shared with peer."""
        return peer in self.held

    def set_holds(self, peer: int, value: bool) -> None:
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
        self.held.discard(peer)
        self.suspended.discard(peer)
