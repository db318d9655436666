"""Protocol-internal probes.

One :class:`ProtocolProbes` instance serves a whole simulation: the
node harnesses expose it (or ``None`` when telemetry is off) and the
protocol components — doorways, the fork engine, the recoloring
session, Algorithm 2's priority machinery — record into it behind the
usual one-pointer-test guard.

The probe catalogue (all instrument names live here, nowhere else):

==============================  ==========  =================================
``doorway.cross``               counter     crossings, keyed by doorway name
``doorway.exit``                counter     exits, keyed by doorway name
``doorway.occupancy``           gauge       nodes currently behind each
                                            doorway (network-wide), keyed,
                                            with high-water marks
``doorway.time_behind``         histogram   virtual time spent behind a
                                            doorway per crossing, keyed
``fork.requests``               counter     ForkRequest messages sent
``fork.grants``                 counter     ForkGrant messages sent
``fork.grant_latency``          histogram   request -> matching grant
                                            arrival, in virtual time
``recolor.sessions``            counter     recoloring sessions started
``recolor.rounds``              counter     peer-exchange rounds executed
``recolor.session_rounds``      histogram   rounds per completed session
``recolor.session_duration``    histogram   virtual time per completed
                                            session
``alg2.notifications``          counter     Notification broadcasts
``alg2.switches``               counter     Switch messages sent, keyed by
                                            reason (exit_cs / notified /
                                            link_up)
``watchdog.warnings``           counter     starvation warnings emitted
``mobility.updates``            counter     position updates executed,
                                            keyed by reason (horizon /
                                            arrival / teleport / freeze);
                                            a crossing moves no position
``mobility.crossings``          counter     link-crossing certificates
                                            scheduled
``explore.decisions``           counter     controlled choice-point
                                            decisions, keyed by kind
                                            (tie / delay / crash);
                                            incremented by
                                            :mod:`repro.explore.runner`
``explore.monitor_checks``      counter     invariant-monitor checks
                                            executed during a controlled
                                            run
``explore.violations``          counter     invariant violations, keyed
                                            by monitor name
``engine.sched_ops``            counter     scheduler queue operations,
                                            keyed by op kind (enqueues /
                                            dequeues / cancelled /
                                            compactions / rung_spills);
                                            recorded at run end by the
                                            runtime from
                                            ``Simulator.stats()``
                                            (see docs/performance.md)
==============================  ==========  =================================
"""

from __future__ import annotations

from typing import Optional

from repro.obs.registry import MetricRegistry, live_registry


class ProtocolProbes:
    """Pre-resolved instrument handles for the protocol hot paths.

    Components hold a ``ProtocolProbes`` (or ``None``); every ``note_*``
    method below is one or two attribute operations on pre-created
    instruments, so the instrumented path stays cheap and the
    uninstrumented path costs a single ``is not None`` test at the call
    site.
    """

    __slots__ = (
        "registry",
        "doorway_cross",
        "doorway_exit",
        "doorway_occupancy",
        "doorway_time_behind",
        "fork_requests",
        "fork_grants",
        "fork_grant_latency",
        "recolor_sessions",
        "recolor_rounds",
        "recolor_session_rounds",
        "recolor_session_duration",
        "alg2_notifications",
        "alg2_switches",
        "mobility_updates",
        "mobility_crossings",
    )

    def __init__(self, registry: MetricRegistry) -> None:
        self.registry = registry
        self.doorway_cross = registry.counter(
            "doorway.cross", "doorway crossings by doorway name"
        )
        self.doorway_exit = registry.counter(
            "doorway.exit", "doorway exits by doorway name"
        )
        self.doorway_occupancy = registry.gauge(
            "doorway.occupancy", "nodes currently behind each doorway"
        )
        self.doorway_time_behind = registry.histogram(
            "doorway.time_behind", "virtual time behind a doorway per crossing"
        )
        self.fork_requests = registry.counter(
            "fork.requests", "ForkRequest messages sent"
        )
        self.fork_grants = registry.counter(
            "fork.grants", "ForkGrant messages sent"
        )
        self.fork_grant_latency = registry.histogram(
            "fork.grant_latency", "fork request -> grant virtual latency"
        )
        self.recolor_sessions = registry.counter(
            "recolor.sessions", "recoloring sessions started"
        )
        self.recolor_rounds = registry.counter(
            "recolor.rounds", "recoloring peer-exchange rounds executed"
        )
        self.recolor_session_rounds = registry.histogram(
            "recolor.session_rounds", "rounds per completed session"
        )
        self.recolor_session_duration = registry.histogram(
            "recolor.session_duration", "virtual time per completed session"
        )
        self.alg2_notifications = registry.counter(
            "alg2.notifications", "Algorithm 2 notification broadcasts"
        )
        self.alg2_switches = registry.counter(
            "alg2.switches", "Algorithm 2 switch messages by reason"
        )
        self.mobility_updates = registry.counter(
            "mobility.updates", "position updates executed by reason"
        )
        self.mobility_crossings = registry.counter(
            "mobility.crossings", "link-crossing certificates scheduled"
        )

    # ------------------------------------------------------------------
    # Doorways
    # ------------------------------------------------------------------
    def note_doorway_cross(self, doorway: str) -> None:
        self.doorway_cross.inc(key=doorway)
        self.doorway_occupancy.inc(key=doorway)

    def note_doorway_exit(self, doorway: str, time_behind: float) -> None:
        self.doorway_exit.inc(key=doorway)
        self.doorway_occupancy.dec(key=doorway)
        self.doorway_time_behind.observe(time_behind, key=doorway)

    # ------------------------------------------------------------------
    # Fork collection
    # ------------------------------------------------------------------
    def note_fork_request(self) -> None:
        self.fork_requests.inc()

    def note_fork_grant(self) -> None:
        self.fork_grants.inc()

    def note_fork_grant_latency(self, latency: float) -> None:
        self.fork_grant_latency.observe(latency)

    # ------------------------------------------------------------------
    # Recoloring
    # ------------------------------------------------------------------
    def note_recolor_begin(self) -> None:
        self.recolor_sessions.inc()

    def note_recolor_round(self) -> None:
        self.recolor_rounds.inc()

    def note_recolor_done(self, rounds: int, duration: float) -> None:
        self.recolor_session_rounds.observe(float(rounds))
        self.recolor_session_duration.observe(duration)

    # ------------------------------------------------------------------
    # Algorithm 2 priorities
    # ------------------------------------------------------------------
    def note_notification(self) -> None:
        # Per-message counts live in ChannelStats' per-kind breakdown;
        # this counts priority-protocol *events* (one per broadcast).
        self.alg2_notifications.inc()

    def note_switch(self, reason: str) -> None:
        self.alg2_switches.inc(key=reason)

    # ------------------------------------------------------------------
    # Mobility plane
    # ------------------------------------------------------------------
    def note_mobility_update(self, reason: str) -> None:
        self.mobility_updates.inc(key=reason)

    def note_mobility_crossing(self) -> None:
        self.mobility_crossings.inc()


def build_probes(registry: Optional[MetricRegistry]) -> Optional[ProtocolProbes]:
    """``ProtocolProbes`` on a live registry, else ``None``.

    The single place the ``None``-when-off decision is made, so callers
    follow the :func:`~repro.obs.registry.live_registry` idiom without
    repeating it.
    """
    live = live_registry(registry)
    if live is None:
        return None
    return ProtocolProbes(live)
