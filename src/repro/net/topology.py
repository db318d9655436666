"""Dynamic unit-disk topology.

The communication graph is derived from node positions: two nodes are
neighbors iff their Euclidean distance is at most the radio range.
Moving a node produces a :class:`LinkDiff` — the set of links that came
up and went down — which the link layer turns into LinkUp/LinkDown
indications.

The topology also answers graph-distance queries (used to *measure*
failure locality) and degree statistics (used to report ``delta``).

Scaling notes
-------------

Positions are stored in two flat ``array('d')`` columns indexed by node
id (plus the insertion-ordered ``_rank`` dict for membership), not in a
per-node dict of :class:`Point` objects: the distance tests on the hot
update paths read unboxed doubles straight out of the arrays, and a
city-scale topology carries ~16 bytes per node of position state
instead of a dict entry plus a boxed point.  :meth:`position`
materializes a ``Point`` on demand for callers that want one.  The
degree histogram backing ``max_degree`` is likewise a contiguous list
indexed by degree.

Membership and movement are served by a **spatial-hash grid** whose
cell size equals the radio range: a node within range of position
``p`` must sit in one of the 9 cells surrounding ``p``'s cell, so
``add_node`` / ``set_position`` examine only local
candidates instead of every node (O(density) instead of O(n) per
update).  Candidates are visited in insertion-rank order, so the grid
is bit-identical to an all-pairs scan — same links, same ``LinkDiff``
ordering.  That scan is the tests' oracle
(``tests/oracles/topology_scan.py``), and ``tests/test_topology_grid.py``
checks the two against each other over randomized workloads.

``max_degree`` (the ``delta`` the link layer reports frequently) is
tracked incrementally through a degree histogram rather than being
recomputed with a full pass per call.

A monotone :attr:`~DynamicTopology.version` counter ticks on every
membership or link change (never on a pure position update), and backs
three caches: the per-node ``neighbors()`` frozenset, the presorted
``sorted_neighbors()`` tuple, and a one-slot BFS memo serving
``distances_from`` (the failure-locality metric and the progress
monitor ask for the same crash distances repeatedly against an
unchanged graph).

The kinetic mobility engine (:mod:`repro.mobility.kinetic`) moves one
node per arrival, freeze or teleport through ``set_position``, naming
its other mid-flight nodes as ``deferred`` so their stale stored
positions are never judged.  A kinetic crossing moves no position: it
sets its one pair's link through ``force_link``.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import deque
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from typing import (
    Container, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple,
)

from repro.errors import TopologyError
from repro.net.geometry import Point

Link = Tuple[int, int]

Cell = Tuple[int, int]

#: Relative slack on the grid cell size.  Cells are fractionally larger
#: than the radio range so that floating-point rounding in the
#: coordinate-to-cell division can never push two in-range nodes more
#: than one cell apart; the exact distance test still decides linkage.
_CELL_SLACK = 1e-9


def link_key(a: int, b: int) -> Link:
    """Canonical (sorted) representation of an undirected link."""
    return (a, b) if a < b else (b, a)


@dataclass
class LinkDiff:
    """Links created and destroyed by one position update."""

    added: List[Link] = field(default_factory=list)
    removed: List[Link] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.added and not self.removed


class DynamicTopology:
    """Node positions plus the induced unit-disk communication graph.

    Args:
        radio_range: link distance threshold (inclusive).
    """

    def __init__(self, radio_range: float = 1.0) -> None:
        if radio_range <= 0:
            raise TopologyError(f"radio range must be positive, got {radio_range}")
        self.radio_range = radio_range
        # Position columns, indexed by node id; membership lives in
        # ``_rank`` (insertion-ordered, maintained in lockstep with the
        # old position dict's order).
        self._xs: array = array("d")
        self._ys: array = array("d")
        self._adjacency: Dict[int, Set[int]] = {}
        self._cell_size = radio_range * (1.0 + _CELL_SLACK)
        self._grid: Dict[Cell, Set[int]] = {}
        self._node_cell: Dict[int, Cell] = {}
        # Insertion ranks fix the order candidates are visited in (and
        # so LinkDiff ordering), independent of grid bucket layout.
        # Doubles as the membership map.
        self._rank: Dict[int, int] = {}
        self._rank_counter = itertools.count()
        # Degree histogram, indexed by degree (contiguous — degrees are
        # small and dense, so a list beats a dict on the 4-updates-per-
        # link hot path).
        self._degree_counts: List[int] = []
        self._max_degree = 0
        # Lazily built ascending neighbor tuples, invalidated per node
        # on link/unlink; serves broadcast fan-out without re-sorting.
        self._sorted_neighbors: Dict[int, Tuple[int, ...]] = {}
        # Lazily built neighbor frozensets, same invalidation scheme;
        # serves the protocol layer's per-message neighbors() reads.
        self._frozen_neighbors: Dict[int, FrozenSet[int]] = {}
        #: Monotone graph version: bumps on any membership or link
        #: change, never on a pure position update.  External caches
        #: (and the BFS memo below) key on it.
        self.version = 0
        # One-slot BFS memo: (version, sources, limit) -> distance dict.
        self._bfs_key: Optional[
            Tuple[int, Tuple[int, ...], Optional[int]]
        ] = None
        self._bfs_result: Dict[int, int] = {}
        # One-slot links() memo, keyed on version the same way.
        self._links_version = -1
        self._links_result: List[Link] = []

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def _store_position(self, node_id: int, position: Point) -> None:
        """Write a node's coordinates into the position columns."""
        xs = self._xs
        if node_id >= len(xs):
            grow = node_id + 1 - len(xs)
            xs.extend([0.0] * grow)
            self._ys.extend([0.0] * grow)
        xs[node_id] = position.x
        self._ys[node_id] = position.y

    def add_node(self, node_id: int, position: Point) -> LinkDiff:
        """Add a node; returns the links its arrival created."""
        if node_id in self._rank:
            raise TopologyError(f"node {node_id} already exists")
        self.version += 1
        self._store_position(node_id, position)
        self._adjacency[node_id] = set()
        self._rank[node_id] = next(self._rank_counter)
        self._grid_insert(node_id, position)
        self._count_degree(0, +1)
        diff = LinkDiff()
        radio = self.radio_range
        xs, ys = self._xs, self._ys
        px, py = position.x, position.y
        hypot = math.hypot
        for other in self._scan_candidates(node_id, position):
            if hypot(px - xs[other], py - ys[other]) <= radio:
                self._link(node_id, other)
                diff.added.append(link_key(node_id, other))
        return diff

    def add_nodes(self, nodes: Iterable[Tuple[int, Point]]) -> None:
        """Bulk node insertion: the O(n + links) bootstrap path.

        Final state — positions, ranks, grid, adjacency, degree
        histogram, ``version`` — is exactly what the same sequence of
        :meth:`add_node` calls produces; only the per-arrival
        :class:`LinkDiff` is skipped, which is why this is reserved for
        construction time (nobody consumes arrival diffs there).  Every
        candidate pair is examined once (each node links against the
        lower-insertion-rank part of its grid window) and the degree
        histogram is rebuilt in one pass at the end instead of being
        nudged four times per link.
        """
        items = list(nodes)
        if not items:
            return
        rank = self._rank
        adjacency = self._adjacency
        rank_counter = self._rank_counter
        xs, ys = self._xs, self._ys
        # One bulk growth of the position columns: add_node grows them
        # per arrival, but here the final extent is known up front.
        top = max(node_id for node_id, _ in items)
        if top >= len(xs):
            grow = top + 1 - len(xs)
            xs.extend([0.0] * grow)
            ys.extend([0.0] * grow)
        grid = self._grid
        node_cell = self._node_cell
        size = self._cell_size
        floor = math.floor
        for node_id, position in items:
            if node_id in rank:
                raise TopologyError(f"node {node_id} already exists")
            px = xs[node_id] = position.x
            py = ys[node_id] = position.y
            adjacency[node_id] = set()
            rank[node_id] = next(rank_counter)
            cell = (floor(px / size), floor(py / size))
            bucket = grid.get(cell)
            if bucket is None:
                bucket = grid[cell] = set()
            bucket.add(node_id)
            node_cell[node_id] = cell
        radio = self.radio_range
        hypot = math.hypot
        links = 0
        for node_id, position in items:
            px, py = position.x, position.y
            my_rank = rank[node_id]
            nbrs = adjacency[node_id]
            cx, cy = floor(px / size), floor(py / size)
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    bucket = grid.get((cx + dx, cy + dy))
                    if not bucket:
                        continue
                    for other in bucket:
                        if (
                            rank[other] < my_rank
                            and hypot(px - xs[other], py - ys[other]) <= radio
                        ):
                            nbrs.add(other)
                            adjacency[other].add(node_id)
                            links += 1
        # add_node bumps version once per arrival and once per link.
        self.version += len(items) + links
        if links:
            self._sorted_neighbors.clear()
            self._frozen_neighbors.clear()
        self._rebuild_degree_histogram()

    def _rebuild_degree_histogram(self) -> None:
        counts: List[int] = []
        for nbrs in self._adjacency.values():
            degree = len(nbrs)
            if degree >= len(counts):
                counts.extend([0] * (degree + 1 - len(counts)))
            counts[degree] += 1
        self._degree_counts = counts
        self._max_degree = len(counts) - 1 if counts else 0

    def nodes(self) -> List[int]:
        """All node ids, sorted (stable iteration order for determinism)."""
        return sorted(self._rank)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._rank

    # ------------------------------------------------------------------
    # Positions and movement
    # ------------------------------------------------------------------
    def position(self, node_id: int) -> Point:
        """Current position of a node (materialized from the columns)."""
        self._require(node_id)
        return Point(self._xs[node_id], self._ys[node_id])

    def set_position(
        self,
        node_id: int,
        position: Point,
        deferred: Container[int] = (),
    ) -> LinkDiff:
        """Move a node and return the induced link changes.

        Pairs with a node in ``deferred`` are not evaluated.  The
        kinetic mobility engine passes its other mid-flight nodes here:
        their *stored* positions are stale between repositioning
        events, and every crossing involving them is already covered by
        that pair's own scheduled certificate — skipping them avoids
        spurious toggles.
        """
        self._require(node_id)
        self._store_position(node_id, position)
        self._grid_move(node_id, position)
        diff = LinkDiff()
        current = self._adjacency[node_id]
        radio = self.radio_range
        xs, ys = self._xs, self._ys
        px, py = position.x, position.y
        hypot = math.hypot
        for other in self._scan_candidates(node_id, position, extra=current):
            if other in deferred:
                continue
            in_range = hypot(px - xs[other], py - ys[other]) <= radio
            if in_range and other not in current:
                self._link(node_id, other)
                diff.added.append(link_key(node_id, other))
            elif not in_range and other in current:
                self._unlink(node_id, other)
                diff.removed.append(link_key(node_id, other))
        return diff

    def reposition(self, node_id: int, position: Point) -> bool:
        """Refresh a node's stored position and grid cell — no link scan.

        For callers that know no link can change at this instant: the
        kinetic engine's horizon refresh only combats grid staleness,
        every link toggle involving the mover being covered by a
        scheduled crossing certificate.  Adjacency is re-evaluated at
        the node's next ``set_position`` call (arrival, freeze,
        teleport), so even a dropped grazing contact cannot outlive the
        flight.

        Returns True iff the node's grid *cell* changed — the signal
        the kinetic engine keys its discovery re-scan on.
        """
        self._require(node_id)
        self._store_position(node_id, position)
        return self._grid_move(node_id, position)

    def force_link(self, a: int, b: int, up: bool) -> LinkDiff:
        """Set one link's state directly, ignoring node positions.

        Used by scripted link schedules (live-run replay), where the
        recorded churn is the ground truth, and by the kinetic engine's
        crossing certificates, which judge the pair on true positions
        that the stored ones lag mid-flight.  Returns
        the resulting :class:`LinkDiff` — empty when the link is already
        in the requested state.
        """
        self._require(a)
        self._require(b)
        if a == b:
            raise TopologyError(f"cannot link node {a} to itself")
        diff = LinkDiff()
        if up and not self.has_link(a, b):
            self._link(a, b)
            diff.added.append(link_key(a, b))
        elif not up and self.has_link(a, b):
            self._unlink(a, b)
            diff.removed.append(link_key(a, b))
        return diff

    # ------------------------------------------------------------------
    # Graph queries
    # ------------------------------------------------------------------
    def neighbors(self, node_id: int) -> FrozenSet[int]:
        """The current neighbor set of a node (cached frozenset).

        The protocol layer reads ``N`` on nearly every message; the
        frozenset is built once per (node, graph change) instead of per
        call, invalidated by link/unlink exactly like the presorted
        tuple below.
        """
        cached = self._frozen_neighbors.get(node_id)
        if cached is None:
            self._require(node_id)
            cached = frozenset(self._adjacency[node_id])
            self._frozen_neighbors[node_id] = cached
        return cached

    def neighbor_view(self, node_id: int) -> AbstractSet[int]:
        """The node's live adjacency set — read only, never copied.

        link/unlink mutate this one set object in place from
        :meth:`add_node` on, so a caller may resolve it once and read
        it on every event.
        """
        self._require(node_id)
        return self._adjacency[node_id]

    def sorted_neighbors(self, node_id: int) -> Tuple[int, ...]:
        """The current neighbors in ascending id order (cached).

        The broadcast fan-out order of every protocol, served from a
        per-node cache that link/unlink invalidates — repeated
        broadcasts between topology changes never re-sort.
        """
        cached = self._sorted_neighbors.get(node_id)
        if cached is None:
            self._require(node_id)
            cached = tuple(sorted(self._adjacency[node_id]))
            self._sorted_neighbors[node_id] = cached
        return cached

    def has_link(self, a: int, b: int) -> bool:
        """True iff nodes a and b are currently neighbors."""
        return b in self._adjacency.get(a, ())

    def links(self) -> List[Link]:
        """All current links, canonically keyed and sorted.

        Memoized against :attr:`version` — whole-network checks (the
        tests' full-scan monitor oracle, the quiescent checkers) walk
        the link list again and again on a mostly static graph.  Treat
        the returned list as read-only.
        """
        if self._links_version != self.version:
            self._links_result = sorted(
                (a, b)
                for a, nbrs in self._adjacency.items()
                for b in nbrs
                if a < b
            )
            self._links_version = self.version
        return self._links_result

    def max_degree(self) -> int:
        """delta — the maximum degree over all nodes (0 if empty)."""
        return self._max_degree

    def distances_from(
        self, *sources: int, limit: Optional[int] = None
    ) -> Dict[int, int]:
        """Hop distance to the nearest of ``sources`` of every node
        reachable from them (within ``limit`` hops, when given).

        The crash distance of both the failure-locality metric and the
        progress monitor's exemption.  Memoized against :attr:`version`
        for the last query — the locality metric and the monitor ask
        the same question repeatedly against an unchanged graph.  Treat
        the returned dict as read-only.
        """
        for source in sources:
            self._require(source)
        key = (self.version, sources, limit)
        if key == self._bfs_key:
            return self._bfs_result
        dist = dict.fromkeys(sources, 0)
        frontier = deque(dist)
        while frontier:
            node = frontier.popleft()
            hops = dist[node] + 1
            if limit is not None and hops > limit:
                continue
            for nbr in self._adjacency[node]:
                if nbr not in dist:
                    dist[nbr] = hops
                    frontier.append(nbr)
        self._bfs_key = key
        self._bfs_result = dist
        return dist

    def components(self) -> List[Set[int]]:
        """Connected components of the communication graph."""
        remaining = set(self._rank)
        result: List[Set[int]] = []
        while remaining:
            root = min(remaining)
            component = set(self.distances_from(root))
            result.append(component)
            remaining -= component
        return result

    # ------------------------------------------------------------------
    # Internal: candidate scans
    # ------------------------------------------------------------------
    def _scan_candidates(
        self,
        node_id: int,
        position: Point,
        extra: Iterable[int] = (),
    ) -> List[int]:
        """Nodes that could gain or lose a link to ``node_id``.

        The 9 cells around ``position`` plus ``extra`` (current
        neighbors, which may have fallen outside that window), in
        ``_rank`` insertion order — the order an all-pairs scan over
        the membership map would visit them in.
        """
        candidates: Set[int] = set(extra)
        grid = self._grid
        cx, cy = self._cell_of(position)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                bucket = grid.get((cx + dx, cy + dy))
                if bucket:
                    candidates.update(bucket)
        candidates.discard(node_id)
        rank = self._rank
        return sorted(candidates, key=rank.__getitem__)

    def nearby_nodes(self, position: Point, rings: int = 1) -> List[int]:
        """Nodes whose *stored* position lies within ``rings`` grid
        cells of ``position``, in insertion-rank order.

        The kinetic mobility engine uses a wider-than-default window
        (``rings=3``) for certificate discovery: a mid-flight node's
        stored position is refreshed at least every half radio range of
        travel, so any pair that can cross the range before the next
        refresh of either endpoint sits within three cells.
        """
        grid = self._grid
        cx, cy = self._cell_of(position)
        candidates: Set[int] = set()
        for dx in range(-rings, rings + 1):
            for dy in range(-rings, rings + 1):
                bucket = grid.get((cx + dx, cy + dy))
                if bucket:
                    candidates.update(bucket)
        rank = self._rank
        return sorted(candidates, key=rank.__getitem__)

    # ------------------------------------------------------------------
    # Internal: grid maintenance
    # ------------------------------------------------------------------
    def _cell_of(self, position: Point) -> Cell:
        size = self._cell_size
        return (math.floor(position.x / size), math.floor(position.y / size))

    def _grid_insert(self, node_id: int, position: Point) -> None:
        cell = self._cell_of(position)
        self._grid.setdefault(cell, set()).add(node_id)
        self._node_cell[node_id] = cell

    def _grid_move(self, node_id: int, position: Point) -> bool:
        """Re-bucket a node; True iff its grid cell changed."""
        new_cell = self._cell_of(position)
        old_cell = self._node_cell[node_id]
        if new_cell == old_cell:
            return False
        bucket = self._grid[old_cell]
        bucket.discard(node_id)
        if not bucket:
            del self._grid[old_cell]
        self._grid.setdefault(new_cell, set()).add(node_id)
        self._node_cell[node_id] = new_cell
        return True

    # ------------------------------------------------------------------
    # Internal: adjacency + degree histogram
    # ------------------------------------------------------------------
    def _link(self, a: int, b: int) -> None:
        self.version += 1
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)
        self._sorted_neighbors.pop(a, None)
        self._sorted_neighbors.pop(b, None)
        self._frozen_neighbors.pop(a, None)
        self._frozen_neighbors.pop(b, None)
        self._count_degree(len(self._adjacency[a]) - 1, -1)
        self._count_degree(len(self._adjacency[a]), +1)
        self._count_degree(len(self._adjacency[b]) - 1, -1)
        self._count_degree(len(self._adjacency[b]), +1)

    def _unlink(self, a: int, b: int) -> None:
        self.version += 1
        self._adjacency[a].discard(b)
        self._adjacency[b].discard(a)
        self._sorted_neighbors.pop(a, None)
        self._sorted_neighbors.pop(b, None)
        self._frozen_neighbors.pop(a, None)
        self._frozen_neighbors.pop(b, None)
        self._count_degree(len(self._adjacency[a]) + 1, -1)
        self._count_degree(len(self._adjacency[a]), +1)
        self._count_degree(len(self._adjacency[b]) + 1, -1)
        self._count_degree(len(self._adjacency[b]), +1)

    def _count_degree(self, degree: int, delta: int) -> None:
        counts = self._degree_counts
        if degree >= len(counts):
            counts.extend([0] * (degree + 1 - len(counts)))
        counts[degree] += delta
        if delta > 0:
            if degree > self._max_degree:
                self._max_degree = degree
        else:
            while self._max_degree and not counts[self._max_degree]:
                self._max_degree -= 1

    # ------------------------------------------------------------------
    def _require(self, node_id: int) -> None:
        if node_id not in self._rank:
            raise TopologyError(f"unknown node {node_id}")
