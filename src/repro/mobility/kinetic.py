"""Kinetic link prediction: the mobility plane's only execution path.

Advancing every moving node on a timer would touch the topology once
per node per hop of travel even when no link can possibly change — the
dominant cost of sparse or slow mobile scenarios.  Motion episodes are
piecewise linear, so link changes are *predictable*: for a pair of
nodes with relative position ``P(t) = P0 + V·dt`` the squared distance
is the quadratic

    q(dt) = |V|²·dt² + 2(P0·V)·dt + |P0|²

and the link toggles exactly where ``q(dt) = r²``.  The engine keeps
one scheduled *certificate* per candidate pair — the earliest root of
that quadratic over the pieces of both trajectories (each node is
linear until its arrival time, constant afterwards) — and touches the
topology only at certificates, episode boundaries and coarse
*horizon* refreshes.

Certificate completeness
------------------------

Candidate pairs are discovered from the spatial-hash grid, whose
stored positions go stale while a node flies.  A mover's stored
position — and so its grid cell — changes only at its launch, its
horizon refreshes, its arrival, a freeze or a teleport; never at a
crossing.  Staleness is bounded: every mid-flight node is repositioned
at least every **half radio range** of travel (its horizon event).  An
examination of a pair — whether it scheduled a crossing or proved
there is none — depends only on the two *trajectories*, so it is
stamped with both endpoints' motion generations and stays valid until
one of them launches, retargets, teleports or freezes.  Discovery
therefore only has to run a full **three-ring** (7×7 cell) window scan
at a launch and at any horizon that *changed the node's grid cell*;
cell-preserving horizons skip the scan.  A grid move anywhere else
would break this: the next horizon would see the moved cell as
unchanged and skip the scan the new window is owed.

Why that is complete: a crossing of pair ``(a, b)`` requires true
distance ``r``, hence stored–stored distance at most
``r + 2·(r/2) = 2r`` — under three cells (cells are ≥ ``r`` wide).
The stored cell distance of an unexamined pair can only fall to three
cells through some grid move, and every kind of grid move covers the
pair: a cell-changing horizon or launch immediately scans a window
that (symmetrically) contains the other endpoint; an arrival moves the
stored point under half a cell and leaves both trajectories as the
last exam modeled them, so no exam is invalidated and any further
approach takes cell-changing horizons of one endpoint; a teleport
re-certifies against every mid-flight mover; a freeze re-certifies its
scheduled pairs *and* every mover in its window (movers already inside
the window could cross the freeze position without another cell change
of their own).

Most of a window is far away.  A static, unlinked candidate with no
certificate whose closest approach to the rest of the mover's flight
(a point–segment distance) clears the range is stamped as examined
without solving its pieces.

Consistency between events
--------------------------

A certificate speaks for its own pair: a crossing sets that one link
and touches no stored position, grid cell or other pair — O(1) work
per certificate failure, the kinetic-data-structure rule.  When the
toggle lies on the last moving piece of the pair, the solve that found
it also knows what follows (an entry's exit is the other root of that
piece; after an exit the pair rests apart), so the crossing schedules
its successor without solving again.

Stored positions of *other* mid-flight nodes are stale whenever a
position is applied (arrival, freeze, teleport), so those pairs are
excluded from link evaluation (``set_position(..., deferred=...)``):
each such pair has its own certificate, computed from true
trajectories.  Adjacency is thus maintained from exact motion, never
from stale snapshots: at every instant the link graph is the unit-disk
graph of the true positions, up to contacts within rounding of the
range.

Floating point at the boundary is handled with one predicate, the
inclusive ``hypot(dx, dy) ≤ r`` the topology uses: the solver's
"already inside/outside" test at the start of each piece, the
refinement and the crossing's toggle all evaluate it.  The analytic
root is nudged forward (exponentially growing increments on the order
of one ulp) until that test reports the intended side, so a fired
certificate always toggles its link and the follow-up certificate
lands strictly later — no same-instant event loops.  A grazing contact
that never satisfies the predicate is dropped after a bounded number
of nudges.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Set, Tuple

from repro.net.geometry import Point
from repro.net.linklayer import LinkLayer
from repro.net.topology import DynamicTopology, Link, link_key
from repro.sim.engine import ScheduledEvent, Simulator
from repro.sim.events import EventPriority

#: Fraction of the radio range a mid-flight node may travel between
#: stored-position refreshes.  The three-ring candidate window below is
#: sized for this bound (see the module docstring).
_HORIZON_FRACTION = 0.5

#: Grid rings scanned for certificate discovery (7×7 cells).
_DISCOVERY_RINGS = 3

#: Cap on boundary-refinement nudges before a contact is dropped.
_MAX_REFINE = 80


#: Relative margin on ``r²`` by which :func:`_clear_of` must clear the
#: range: far above the rounding of the quadratic's coefficients, so a
#: rejected pair is one the full solve would also find no root for.
_CLEAR_MARGIN = 1.0 + 1e-9


class _Motion:
    """One node's active linear flight."""

    __slots__ = (
        "node", "x0", "y0", "t0", "vx", "vy", "t1", "dest",
        "arrived_cb", "arrival_event", "horizon_event",
    )

    def __init__(
        self,
        node: int,
        origin: Point,
        dest: Point,
        t0: float,
        speed: float,
        arrived_cb: Callable[[], None],
    ) -> None:
        self.node = node
        self.x0 = origin.x
        self.y0 = origin.y
        self.t0 = t0
        dist = origin.distance_to(dest)
        self.t1 = t0 + dist / speed
        self.vx = (dest.x - origin.x) / (self.t1 - t0)
        self.vy = (dest.y - origin.y) / (self.t1 - t0)
        self.dest = dest
        self.arrived_cb = arrived_cb
        self.arrival_event: Optional[ScheduledEvent] = None
        self.horizon_event: Optional[ScheduledEvent] = None

    def position_at(self, t: float) -> Point:
        """Exact position at time ``t`` (clamped to the flight window)."""
        if t >= self.t1:
            return self.dest
        if t <= self.t0:
            return Point(self.x0, self.y0)
        dt = t - self.t0
        return Point(self.x0 + self.vx * dt, self.y0 + self.vy * dt)


def _clear_of(motion: _Motion, point: Point, now: float, r2: float) -> bool:
    """True iff ``motion``'s flight from ``now`` (before its arrival)
    on stays out of range of the fixed ``point``.

    The closest approach of the remaining segment (then the
    destination, where the node rests) must exceed ``r`` by
    :data:`_CLEAR_MARGIN` on ``r²``; such a pair has no crossing for
    the whole motion generation, so its exam needs no root solve.
    """
    vx, vy = motion.vx, motion.vy
    dt = now - motion.t0
    dx = motion.x0 + vx * dt - point.x
    dy = motion.y0 + vy * dt - point.y
    # Time of closest approach along the line, clamped to the flight.
    u = -(dx * vx + dy * vy) / (vx * vx + vy * vy)
    span = motion.t1 - now
    if u > span:
        u = span
    if u > 0.0:
        dx += vx * u
        dy += vy * u
    return dx * dx + dy * dy > r2 * _CLEAR_MARGIN


class KineticEngine:
    """Certificate-driven execution of movement episodes.

    Owned by :class:`repro.mobility.base.MobilityController`; one engine
    serves the whole network.  All events run at
    :data:`EventPriority.TOPOLOGY`.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: DynamicTopology,
        linklayer: LinkLayer,
        probes=None,
    ) -> None:
        self._sim = sim
        self._topology = topology
        self._linklayer = linklayer
        self._probes = probes
        self._motion: Dict[int, _Motion] = {}
        self._pair_events: Dict[Link, ScheduledEvent] = {}
        self._pairs_of: Dict[int, Set[Link]] = {}
        # A pair's crossing function depends only on both endpoints'
        # motions, so an examination (even one that found no crossing)
        # stays valid until either endpoint's *trajectory* changes —
        # launch, retarget, teleport or crash-freeze, but NOT a plain
        # arrival (the exam already modeled the constant piece after
        # t1).  Each node carries a motion generation; ``_examined``
        # remembers the generation pair under which a pair was last
        # solved, letting horizon refreshes skip the (overwhelmingly
        # redundant) re-solve of an unchanged 7x7 window.
        self._gen: Dict[int, int] = {}
        self._examined: Dict[Link, Tuple[int, int]] = {}
        self._examined_cap = 4096
        # Counters (all deterministic; surfaced through stats()/probes).
        self.position_updates = 0
        self.crossings_scheduled = 0
        self.crossing_events = 0
        self.horizon_events = 0
        self.arrivals = 0
        self.teleports = 0

    # ------------------------------------------------------------------
    # API used by the controller
    # ------------------------------------------------------------------
    def launch(
        self,
        node_id: int,
        destination: Point,
        speed: float,
        arrived_cb: Callable[[], None],
    ) -> bool:
        """Begin an episode.  Returns True when it completed instantly
        (teleport or zero-length move); otherwise ``arrived_cb`` runs at
        the exact arrival time ``t0 + dist/speed``.
        """
        now = self._sim.now
        if node_id in self._motion:
            # Retarget mid-flight: pin the current true position first.
            self._freeze(node_id, self._motion[node_id].position_at(now))
        origin = self._topology.position(node_id)
        dist = origin.distance_to(destination)
        self._gen[node_id] = self._gen.get(node_id, 0) + 1
        if speed <= 0 or dist == 0.0:
            self.teleports += 1
            self._apply(node_id, destination, "teleport")
            # The jump invalidates every in-flight certificate computed
            # against the old stored position.
            for mover in sorted(self._motion):
                self._certify(mover, node_id)
            return True
        motion = _Motion(node_id, origin, destination, now, speed, arrived_cb)
        self._motion[node_id] = motion
        motion.arrival_event = self._sim.schedule_at(
            motion.t1, self._arrival, node_id,
            priority=EventPriority.TOPOLOGY,
        )
        period = (_HORIZON_FRACTION * self._topology.radio_range) / speed
        if now + period < motion.t1:
            motion.horizon_event = self._sim.schedule_at(
                now + period, self._horizon, node_id, period,
                priority=EventPriority.TOPOLOGY,
            )
        # The new motion invalidates every certificate involving this
        # node; re-certify known pairs, then discover around the origin.
        for pair in sorted(self._pairs_of.get(node_id, ())):
            self._certify(*pair)
        self._predict(node_id)
        return False

    def note_crash(self, node_id: int) -> None:
        """Freeze a crashed node at its exact position right now."""
        motion = self._motion.get(node_id)
        if motion is None:
            return
        position = motion.position_at(self._sim.now)
        self._freeze(node_id, position)

    def stats(self) -> Dict[str, object]:
        """Deterministic mobility-plane counters for reports/benchmarks."""
        return {
            "position_updates": self.position_updates,
            "crossings_scheduled": self.crossings_scheduled,
            "crossing_events": self.crossing_events,
            "horizon_events": self.horizon_events,
            "arrivals": self.arrivals,
            "teleports": self.teleports,
        }

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _arrival(self, node_id: int) -> None:
        motion = self._motion.get(node_id)
        if motion is None:
            return
        if self._linklayer.is_crashed(node_id):
            self._freeze(node_id, motion.position_at(self._sim.now))
            return
        del self._motion[node_id]
        if motion.horizon_event is not None:
            motion.horizon_event.cancel()
        self.arrivals += 1
        self._apply(node_id, motion.dest, "arrival")
        motion.arrived_cb()

    def _horizon(self, node_id: int, period: float) -> None:
        motion = self._motion.get(node_id)
        if motion is None:
            return
        now = self._sim.now
        if self._linklayer.is_crashed(node_id):
            self._freeze(node_id, motion.position_at(now))
            return
        self.horizon_events += 1
        # Reposition only — no link evaluation.  Every link toggle
        # involving this mover has a scheduled certificate (the exam
        # cache guarantees the window was solved), so the horizon's only
        # job is keeping the grid fresh for discovery.
        self.position_updates += 1
        if self._probes is not None:
            self._probes.note_mobility_update("horizon")
        if self._topology.reposition(node_id, motion.position_at(now)):
            # The discovery window shifted by at least one cell (no
            # other event moves a flying node's cell): scan it.  An
            # unchanged cell means an unchanged window whose pairs are
            # all exam-stamped; any *entrant* since then made a
            # cell-changing grid move of its own and scanned a window
            # containing this node (see the module docstring).
            self._predict(node_id)
        if now + period < motion.t1:
            motion.horizon_event = self._sim.schedule_at(
                now + period, self._horizon, node_id, period,
                priority=EventPriority.TOPOLOGY,
            )
        else:
            motion.horizon_event = None

    def _pair_event(self, a: int, b: int, then: Optional[float]) -> None:
        pair = (a, b)  # scheduled under its canonical key
        self._pair_events.pop(pair, None)
        self._drop_pair(pair)
        topology = self._topology
        now = self._sim.now
        motion = self._motion
        for n in pair:
            if n in motion and self._linklayer.is_crashed(n):
                self._freeze(n, motion[n].position_at(now))
                then = None  # the exam that gave ``then`` is stale
        self.crossing_events += 1
        # Set this one link from the predicate the root was refined
        # against; write no stored position (see the module docstring).
        # A same-instant freeze or arrival may have set it already.
        up = self._true_position(a, now).distance_to(
            self._true_position(b, now)
        ) <= topology.radio_range
        self._linklayer.apply_diff(topology.force_link(a, b, up))
        # Certificates are motion-based, so the other pairs of a and b
        # stay valid — only this pair needs its next crossing, which
        # the exam that scheduled this one may already know.
        if then is None:
            self._certify(a, b)
        elif then < math.inf:
            t = self._refine(a, b, max(then, now), not up)
            if t is not None:
                self._schedule(pair, t, math.inf)

    # ------------------------------------------------------------------
    # Position application
    # ------------------------------------------------------------------
    def _apply(self, node_id: int, position: Point, reason: str) -> None:
        """Store one node's new position and evaluate its links.

        Pairs with another mid-flight node are skipped (their stored
        positions are stale; each such pair has its own certificate).
        """
        diff = self._topology.set_position(
            node_id, position, deferred=self._motion.keys()
        )
        self.position_updates += 1
        if self._probes is not None:
            self._probes.note_mobility_update(reason)
        self._linklayer.apply_diff(diff)

    def _freeze(self, node_id: int, position: Point) -> None:
        """Stop a flight (crash or retarget) at ``position``."""
        motion = self._motion.pop(node_id)
        self._gen[node_id] = self._gen.get(node_id, 0) + 1
        if motion.arrival_event is not None:
            motion.arrival_event.cancel()
        if motion.horizon_event is not None:
            motion.horizon_event.cancel()
        self._apply(node_id, position, "freeze")
        # Now static: recompute the pairs certified under the old motion.
        for pair in sorted(self._pairs_of.get(node_id, ())):
            self._certify(*pair)
        # A freeze rewrites this node's trajectory mid-piece, so every
        # pair exam against it is stale — including no-crossing exams
        # held by movers already inside the window, who may cross the
        # freeze position without another cell change of their own.
        # Re-solve against every nearby mover now (freezes are rare:
        # crashes and retargets only).
        for other in self._topology.nearby_nodes(
            position, rings=_DISCOVERY_RINGS
        ):
            if other != node_id and other in self._motion:
                self._certify(node_id, other)

    # ------------------------------------------------------------------
    # Certificates
    # ------------------------------------------------------------------
    def _predict(self, node_id: int) -> None:
        """(Re-)certify candidate pairs around a fresh position.

        Pairs whose examination is still valid (neither endpoint's
        motion generation changed since it was solved) are skipped —
        successive horizon windows of one flight overlap by 6/7 of
        their width, so almost all candidates were already solved.  A
        static, unlinked candidate without a certificate that the rest
        of this flight never comes near (:func:`_clear_of`) is stamped
        without solving its pieces: most of a window is such pairs.
        """
        motion = self._motion.get(node_id)
        if motion is None:
            return
        topology = self._topology
        position = topology.position(node_id)
        examined = self._examined
        gen = self._gen
        movers = self._motion
        scheduled = self._pair_events
        linked = topology.neighbor_view(node_id)
        now = self._sim.now
        r = topology.radio_range
        r2 = r * r
        mine = gen.get(node_id, 0)
        candidates = topology.nearby_nodes(position, rings=_DISCOVERY_RINGS)
        seen = set(candidates)
        for other in candidates:
            if other < node_id:
                pair, stamp = (other, node_id), (gen.get(other, 0), mine)
            elif other > node_id:
                pair, stamp = (node_id, other), (mine, gen.get(other, 0))
            else:
                continue
            if examined.get(pair) == stamp:
                continue
            if (
                other not in movers
                and other not in linked
                and pair not in scheduled
                and _clear_of(motion, topology.position(other), now, r2)
            ):
                examined[pair] = stamp
                continue
            self._certify(node_id, other)
        # Current neighbors may sit outside the window (they linked
        # before one endpoint flew away); their break-up still needs a
        # certificate.
        for other in sorted(linked):
            if other not in seen:
                pair = link_key(node_id, other)
                stamp = (gen.get(pair[0], 0), gen.get(pair[1], 0))
                if examined.get(pair) == stamp:
                    continue
                self._certify(node_id, other)

    def _certify(self, a: int, b: int) -> None:
        pair = (a, b) if a < b else (b, a)
        old = self._pair_events.pop(pair, None)
        if old is not None:
            old.cancel()
            self._drop_pair(pair)
        gen = self._gen
        self._examined[pair] = (gen.get(pair[0], 0), gen.get(pair[1], 0))
        if len(self._examined) > self._examined_cap:
            self._compact_examined()
        found = self._next_crossing(a, b)
        if found is not None:
            self._schedule(pair, *found)

    def _schedule(self, pair: Link, t: float, then: Optional[float]) -> None:
        self._pair_events[pair] = self._sim.schedule_at(
            t, self._pair_event, pair[0], pair[1], then,
            priority=EventPriority.TOPOLOGY,
        )
        self._pairs_of.setdefault(pair[0], set()).add(pair)
        self._pairs_of.setdefault(pair[1], set()).add(pair)
        self.crossings_scheduled += 1
        if self._probes is not None:
            self._probes.note_mobility_crossing()

    def _compact_examined(self) -> None:
        """Sweep stale exam stamps; grow the cap to twice the live set."""
        gen = self._gen
        examined = self._examined
        stale = [
            pair for pair, stamp in examined.items()
            if stamp != (gen.get(pair[0], 0), gen.get(pair[1], 0))
        ]
        for pair in stale:
            del examined[pair]
        self._examined_cap = max(4096, 2 * len(examined))

    def _drop_pair(self, pair: Link) -> None:
        for n in pair:
            pairs = self._pairs_of.get(n)
            if pairs is not None:
                pairs.discard(pair)
                if not pairs:
                    del self._pairs_of[n]

    # ------------------------------------------------------------------
    # Crossing math
    # ------------------------------------------------------------------
    def _true_position(self, node_id: int, t: float) -> Point:
        motion = self._motion.get(node_id)
        if motion is not None:
            return motion.position_at(t)
        return self._topology.position(node_id)

    def _next_crossing(
        self, a: int, b: int
    ) -> Optional[Tuple[float, Optional[float]]]:
        """The pair's next toggle: ``(time, then)``, or None if none.

        Solves ``q(dt) = r²`` on each linear piece of the relative
        trajectory (pieces split at the arrival times of whichever
        endpoints are flying; both are constant after arrival), then
        nudges the root forward until the inclusive distance test
        reports the toggled side.

        ``then`` is what follows that toggle, when the same solve
        already knows it: a toggle on the last moving piece is followed
        by the other root of that piece (an entry's exit, not yet
        nudged) or by nothing (``inf``) — a line leaves a disk once, and
        both ends rest afterwards.  ``None`` means solve again.
        """
        now = self._sim.now
        topology = self._topology
        r = topology.radio_range
        r2 = r * r
        hypot = math.hypot
        linked = topology.has_link(a, b)
        ma = self._motion.get(a)
        mb = self._motion.get(b)
        bounds = [now]
        if ma is not None and ma.t1 > now:
            bounds.append(ma.t1)
        if mb is not None and mb.t1 > now:
            bounds.append(mb.t1)
        bounds.sort()
        last = bounds[-1]  # start of the final, constant piece
        bounds.append(math.inf)
        pa = topology.position(a) if ma is None else None
        pb = topology.position(b) if mb is None else None
        hit: Optional[float] = None
        then: Optional[float] = None
        for s, e in zip(bounds, bounds[1:]):
            if e == s:
                continue
            if ma is None:
                ax, ay, avx, avy = pa.x, pa.y, 0.0, 0.0
            elif s >= ma.t1:
                ax, ay, avx, avy = ma.dest.x, ma.dest.y, 0.0, 0.0
            else:
                dt = s - ma.t0
                ax = ma.x0 + ma.vx * dt
                ay = ma.y0 + ma.vy * dt
                avx, avy = ma.vx, ma.vy
            if mb is None:
                bx, by, bvx, bvy = pb.x, pb.y, 0.0, 0.0
            elif s >= mb.t1:
                bx, by, bvx, bvy = mb.dest.x, mb.dest.y, 0.0, 0.0
            else:
                dt = s - mb.t0
                bx = mb.x0 + mb.vx * dt
                by = mb.y0 + mb.vy * dt
                bvx, bvy = mb.vx, mb.vy
            dx, dy = ax - bx, ay - by
            vx, vy = avx - bvx, avy - bvy
            c2 = vx * vx + vy * vy
            c1 = 2.0 * (dx * vx + dy * vy)
            c0 = dx * dx + dy * dy
            length = e - s
            if linked:
                if hypot(dx, dy) > r:
                    hit = s  # outside already: separate now
                    break
                if c2 <= 0.0:
                    continue  # constant piece, stays inside
                disc = c1 * c1 - 4.0 * c2 * (c0 - r2)
                if disc < 0.0:
                    continue  # never reaches r on this piece
                root = (-c1 + math.sqrt(disc)) / (2.0 * c2)
                if 0.0 <= root <= length:
                    hit = s + root
                    if e == last:
                        then = math.inf
                    break
            else:
                if hypot(dx, dy) <= r:
                    hit = s  # inside already: connect now
                    break
                if c2 <= 0.0 or c1 >= 0.0:
                    continue  # constant or receding: never closes in
                disc = c1 * c1 - 4.0 * c2 * (c0 - r2)
                if disc < 0.0:
                    continue
                sq = math.sqrt(disc)
                root = (-c1 - sq) / (2.0 * c2)
                if root <= length:
                    hit = s + max(root, 0.0)
                    if e == last:
                        exit_root = (-c1 + sq) / (2.0 * c2)
                        then = s + exit_root if exit_root <= length else math.inf
                    break
        if hit is None:
            return None
        t = self._refine(a, b, max(hit, now), not linked)
        return None if t is None else (t, then)

    def _refine(
        self, a: int, b: int, t: float, want_linked: bool
    ) -> Optional[float]:
        """Nudge ``t`` forward until the distance test toggles the link."""
        r = self._topology.radio_range
        nudge = max(abs(t), 1.0) * 1e-15
        for _ in range(_MAX_REFINE):
            d = self._true_position(a, t).distance_to(
                self._true_position(b, t)
            )
            if (d <= r) if want_linked else (d > r):
                return t
            t += nudge
            nudge *= 2.0
        return None  # grazing contact: never decisively crosses
