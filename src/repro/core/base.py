"""The interface between algorithms and the node runtime.

An algorithm instance lives inside one node.  The runtime delivers
upcalls (messages, link indications, application hunger) and exposes
services (send, broadcast, neighbor set, critical-section entry) through
the :class:`NodeServices` protocol — implemented by
:class:`repro.runtime.node.NodeHarness`.

Keeping this boundary explicit lets the test suite drive algorithms
with lightweight fakes and lets baselines share the same plumbing.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, AbstractSet, FrozenSet, Iterable, Protocol, Tuple

from repro.core.states import NodeState
from repro.net.messages import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class NodeServices(Protocol):
    """What an algorithm may ask of its host node."""

    node_id: int

    @property
    def state(self) -> NodeState: ...

    @property
    def now(self) -> float: ...

    @property
    def sim(self) -> "Simulator": ...

    def neighbors(self) -> FrozenSet[int]:
        """Current neighbor set ``N`` (maintained by the link layer)."""
        ...

    def neighbor_view(self) -> AbstractSet[int]:
        """``N`` as a live, read-only set: the same object for the
        node's lifetime, updated in place as links come and go."""
        ...

    def sorted_neighbors(self) -> Tuple[int, ...]:
        """``N`` in ascending id order (cached; never re-sorted per call)."""
        ...

    def send(self, dst: int, message: Message) -> None:
        """Unicast to a current neighbor."""
        ...

    def broadcast(self, message: Message) -> None:
        """Send to every current neighbor."""
        ...

    def start_eating(self) -> None:
        """Transition hungry -> eating (the algorithm grants the CS)."""
        ...

    def demote_to_hungry(self) -> None:
        """Transition eating -> hungry (mobility preemption, Line 50)."""
        ...

    def mark(self, tag: str) -> None:
        """Note a protocol stage mark in the run's effect log (a no-op
        when the run keeps none)."""
        ...


class LocalMutexAlgorithm(abc.ABC):
    """Base class for every local mutual exclusion protocol in the repo.

    Subclasses implement the five upcalls.  The runtime guarantees:

    * ``on_hungry`` fires exactly when the application sets the state to
      hungry (the state is already HUNGRY when it runs);
    * ``on_exit_cs`` fires when the application finishes eating, *before*
      the state flips to THINKING — it is the paper's "exit code";
    * ``on_message`` / ``on_link_up`` / ``on_link_down`` mirror the link
      layer's indications, and never fire after the node crashes.
    """

    #: Human-readable protocol name (overridden by subclasses).
    name = "abstract"
    #: Whether the protocol promises local mutual exclusion.  A run
    #: reads it once, from node 0's algorithm: when False, its safety
    #: checker drops its verdicts instead of raising.
    guarantees_exclusion = True

    # One instance per node: slotted so city-scale runs don't carry a
    # per-algorithm ``__dict__``.  Subclasses that declare their own
    # ``__slots__`` stay dict-free; ones that don't (ablations, test
    # fakes) just regain a dict, with no behavior change.
    __slots__ = ("node",)

    def __init__(self, node: NodeServices) -> None:
        self.node = node

    # ------------------------------------------------------------------
    # Upcalls from the runtime
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def on_hungry(self) -> None:
        """The application requested the critical section."""

    @abc.abstractmethod
    def on_exit_cs(self) -> None:
        """The application finished the critical section (exit code)."""

    @abc.abstractmethod
    def on_message(self, src: int, message: Message) -> None:
        """A protocol message arrived from neighbor ``src``."""

    def on_link_up(self, peer: int, moving: bool) -> None:
        """A link to ``peer`` formed; ``moving`` is *our* role for it."""

    def on_link_down(self, peer: int) -> None:
        """The link to ``peer`` failed."""

    def bootstrap_peer(self, peer: int) -> None:
        """Install initial state for a neighbor present at time zero.

        Called once per initial link before the simulation starts; the
        default is a no-op for protocols without per-link state.
        """

    def bootstrap_peers(self, peers: Iterable[int]) -> None:
        """Install initial state for every time-zero neighbor at once.

        ``peers`` arrives in ascending order (the harness passes the
        sorted neighbor list), so per-peer dict state lands in the same
        insertion order as interleaved per-link bootstrapping.  The
        default just loops :meth:`bootstrap_peer`; hot protocols may
        override with a fused loop.
        """
        for peer in peers:
            self.bootstrap_peer(peer)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        return self.node.node_id

