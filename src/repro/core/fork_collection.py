"""The fork-collection engine shared by Algorithm 1 and Algorithm 6.

Both algorithms collect forks the same way — low (higher-priority)
forks first, then high forks, with suspension rules that give low
neighbors precedence — and differ only in *how priority is decided*
(colors vs. the ``higher[]`` flags) and in *what gates collection*
(being behind the SDf doorway vs. simply being hungry).  This module
implements the shared mechanics against a small host interface, so each
algorithm's listing stays a direct transcription of the paper.

Mapping to the paper's listings (Algorithm 1 / Algorithm 6):

=====================  ======================================
``start_collection``   Lines 1-4 / 3-5
``handle_request``     Lines 10-16 / 10-14
``handle_fork``        Lines 17-23 / 15-21
``send_fork``          Lines 30-32 / 34-36
``release_high``       Lines 33-35 / 37-39
``grant_suspended``    Line 8 / Line 9
=====================  ======================================

The macros are set algebra, not scans.  The engine resolves three sets
once, at construction: the node's live neighbor set ``N`` (the link
layer's adjacency set, mutated in place as links come and go), the
fork table's ``held`` and — when the host maintains one — the host's
``low`` set of peers with priority over it.  Then ``all-forks`` is
``held ⊇ N``, ``all-low-forks`` is ``held ⊇ low ∩ N``, and the two
request lists are ``(low ∩ N) − held`` and ``N − low − held``, sorted.
A host without a ``low`` set (Algorithm 1, whose priorities are colors
that change on recoloring) gets ``low ∩ N`` from one comprehension over
:meth:`ForkHost.is_low`.  ``tests/oracles/fork_scan.py`` keeps the
per-neighbor scans these replaced, and ``tests/test_fork_predicates.py``
checks both agree after every event.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.base import NodeServices
from repro.core.forks import ForkTable
from repro.core.messages import FORK_GRANT, FORK_GRANT_BACK, FORK_REQUEST


class ForkHost(Protocol):
    """What the fork engine needs from its algorithm.

    Optionally also ``low``: the set of peers with priority over us,
    kept in step by every priority write (Algorithm 2 routes each
    ``higher[]`` write through one helper).  Without it the engine
    classifies ``N`` peer by peer through :meth:`is_low`.
    """

    node: NodeServices
    forks: ForkTable

    def is_low(self, peer: int) -> bool:
        """True iff ``peer`` has priority over us (smaller color /
        ``higher[peer]``)."""
        ...

    def collecting(self) -> bool:
        """True iff we are actively collecting forks (hungry and, for
        Algorithm 1, behind SDf)."""
        ...

    def bypass_grants(self) -> bool:
        """The "outside SDf" / "thinking" disjunct: grant requests
        unconditionally because we are not competing."""
        ...

    def want_back(self, peer: int) -> bool:
        """The flag of the fork message (Line 31 / Line 35)."""
        ...

    def enter_cs(self) -> None:
        """All forks collected: enter the critical section."""
        ...


class ForkProtocol:
    """Priority-based fork collection for one node."""

    __slots__ = (
        "_host", "_nbrs", "_held", "_low",
        "_requested", "_probes", "_requested_at",
    )

    def __init__(self, host: ForkHost) -> None:
        self._host = host
        # Live, read-only views, each one set object for the node's
        # lifetime: N (mutated in place by the link layer), held, and
        # the host's low set (None: classify through is_low).
        self._nbrs = host.node.neighbor_view()
        self._held = host.forks.held
        self._low = getattr(host, "low", None)
        # Dedup of outstanding requests; purely an optimization (the
        # protocol tolerates duplicates) to keep message counts honest.
        self._requested: set = set()
        # Telemetry (None when the run is uninstrumented).  _requested_at
        # stamps the request time per peer to feed the request->grant
        # latency histogram when the fork arrives.
        self._probes = getattr(host.node, "probes", None)
        self._requested_at: dict = {}

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def low_neighbors(self) -> set:
        """``low ∩ N``: the current neighbors with priority over us."""
        low = self._low
        if low is not None:
            return low & self._nbrs
        is_low = self._host.is_low
        return {j for j in self._nbrs if is_low(j)}

    def all_forks(self) -> bool:
        return self._held.issuperset(self._nbrs)

    def all_low_forks(self) -> bool:
        return self._held.issuperset(self.low_neighbors())

    def missing(self, low=None) -> list:
        """Lines 24-29's request list, ascending: the low neighbors
        whose fork we lack or, holding every low fork, the high ones.
        ``low`` is the caller's ``low_neighbors()``, computed once per
        event."""
        if low is None:
            low = self.low_neighbors()
        held = self._held
        return sorted(low - held or self._nbrs - low - held)

    # ------------------------------------------------------------------
    # Collection entry point (SDf crossed / became hungry)
    # ------------------------------------------------------------------
    def start_collection(self) -> None:
        """Lines 1-4: eat if possible, else request the missing tier."""
        self._requested.clear()
        self._progress()

    def recheck(self) -> None:
        """Re-evaluate progress after the neighbor set or priorities change.

        The listings evaluate ``all-forks`` / ``all-low-forks`` whenever
        an event fires; link failures and ``switch`` messages change the
        truth of those macros without a fork arriving, so the host calls
        this after such events (the proofs of Lemmas 8-9 rely on the
        node proceeding once a blocking neighbor departs).
        """
        if self._host.collecting():
            self._progress()

    def _progress(self) -> None:
        """Eat if all forks are held, else request the missing tier."""
        if self._held.issuperset(self._nbrs):
            self._host.enter_cs()
        else:
            for peer in self.missing():
                self._request(peer)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _request(self, peer: int) -> None:
        if peer in self._requested:
            return
        self._requested.add(peer)
        if self._probes is not None:
            self._probes.note_fork_request()
            self._requested_at[peer] = self._host.node.now
        self._host.node.send(peer, FORK_REQUEST)

    # ------------------------------------------------------------------
    # Request handling (Lines 10-16)
    # ------------------------------------------------------------------
    def handle_request(self, src: int) -> None:
        host = self._host
        if not host.forks.holds(src):
            return  # the fork is already on its way to src
        if not host.is_low(src):
            # Request from a high neighbor: grant unless we hold all low
            # forks while competing.
            if not self.all_low_forks() or host.bypass_grants():
                self.send_fork(src)
            else:
                host.forks.suspended.add(src)
        else:
            # Request from a low neighbor: grant unless we already hold
            # everything (we are eating or about to).
            if not self.all_forks() or host.bypass_grants():
                self.send_fork(src)
                self.release_high_forks()
            else:
                host.forks.suspended.add(src)

    # ------------------------------------------------------------------
    # Fork receipt (Lines 17-23)
    # ------------------------------------------------------------------
    def handle_fork(self, src: int, flag: bool) -> None:
        host = self._host
        host.forks.set_holds(src, True)
        self._requested.discard(src)
        if self._probes is not None:
            requested_at = self._requested_at.pop(src, None)
            if requested_at is not None:
                self._probes.note_fork_grant_latency(
                    host.node.now - requested_at
                )
        if not host.collecting():
            # Not competing (thinking, or hungry outside SDf after the
            # return path): honor a want-back immediately rather than
            # strand the sender.
            if flag:
                self.send_fork(src)
            return
        held = self._held
        if held.issuperset(self._nbrs):
            host.enter_cs()
        low = self.low_neighbors()
        if held.issuperset(low):
            if flag:
                host.forks.suspended.add(src)
            for peer in self.missing(low):
                self._request(peer)
        elif flag:
            self.send_fork(src)

    # ------------------------------------------------------------------
    # Granting
    # ------------------------------------------------------------------
    def send_fork(self, peer: int) -> None:
        """Lines 30-32: hand the fork over, with the want-back flag."""
        host = self._host
        if self._probes is not None:
            self._probes.note_fork_grant()
        host.node.send(
            peer, FORK_GRANT_BACK if host.want_back(peer) else FORK_GRANT
        )
        host.forks.set_holds(peer, False)
        host.forks.suspended.discard(peer)

    def release_high_forks(self) -> None:
        """Lines 33-35: grant suspended high-fork requests we can satisfy."""
        host = self._host
        for peer in sorted(host.forks.suspended):
            if not host.is_low(peer) and host.forks.holds(peer):
                self.send_fork(peer)

    def grant_suspended(self) -> None:
        """Line 8 / Line 9: grant every suspended request."""
        host = self._host
        for peer in sorted(host.forks.suspended):
            if host.forks.holds(peer) and peer in self._nbrs:
                self.send_fork(peer)
        host.forks.suspended.clear()

    def clear_requests(self) -> None:
        """Forget request dedup state (leaving SDf / finishing a cycle)."""
        self._requested.clear()

    def forget_peer(self, peer: int) -> None:
        """Link to ``peer`` failed: drop any outstanding request state."""
        self._requested.discard(peer)
        self._requested_at.pop(peer, None)
