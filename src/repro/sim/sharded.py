"""Conservative parallel simulation over spatial shards.

:class:`ShardedEngine` splits a scenario into stripes
(:mod:`repro.sim.partition`), runs each stripe as an ordinary
:class:`~repro.runtime.simulation.Simulation` with its own event heap,
RNG streams and kinetic-mobility state, and advances all of them in
lock-step windows of one conservative lookahead
(:func:`~repro.sim.partition.conservative_lookahead`).  At each window
barrier the coordinator

1. drains every shard's outbox (messages whose destination is a ghost
   mirror of a remote node) and routes each transmission to the
   destination's owning shard, where it is injected through
   ``Simulator.ingest`` — the lookahead guarantees its arrival time lies
   beyond the barrier, so causality can never be violated;
2. collects the true positions of every moving node, feeds them to a
   global *halo topology* whose radius is
   :func:`~repro.sim.partition.halo_width`, and turns new cross-owner
   halo links into new ghost entries (and known ghost movers into
   position refreshes) for the affected shards.

Ownership is sticky — a node is simulated forever by the shard owning
its initial position — so per-node RNG streams, workloads and crash
injections never migrate and results are identical for any worker
count.  Contiguous groups of shards run in forked worker processes,
``min(num_shards, cpu_count)`` of them; the coordinator only routes
barrier traffic.  One shard would be a plain :class:`Simulation`, so
``num_shards`` must be at least 2.

What multi-shard mode cannot host: algorithms built on global shared
state (``oracle``, ``global-oracle``, ``token-mutex``), the shared-RNG
``alg1-random``, and callable algorithm entries.  ``choy-singh`` and
``alg1-nodoorway`` eagerly color the topology at build time, so the
coordinator precomputes one global legal coloring for them; the Linial
delta is likewise pinned globally via ``delta_override``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import traceback
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.metrics.collector import MetricsCollector
from repro.obs.registry import merge_snapshots
from repro.net.geometry import Point
from repro.net.topology import DynamicTopology
from repro.runtime.simulation import (
    ScenarioConfig,
    Simulation,
    SimulationResult,
    peak_rss_kb,
)
from repro.sim.partition import (
    ShardContext,
    build_partition,
    conservative_lookahead,
    halo_width,
)

#: Registry names whose factories close over global mutable state (a
#: central scheduler, a spanning tree) or the shared coloring RNG;
#: they cannot be split across shards.
_UNSHARDABLE = frozenset(
    {"oracle", "global-oracle", "token-mutex", "alg1-random"}
)

#: Registry names that eagerly compute a coloring of the topology they
#: can see at build time; shards must be handed one global coloring.
_NEEDS_GLOBAL_COLORING = frozenset({"choy-singh", "alg1-nodoorway"})


class _ShardHost:
    """One shard's simulation plus its barrier-protocol endpoints."""

    def __init__(
        self,
        config: ScenarioConfig,
        context: ShardContext,
        monitor_specs: Optional[List[Dict[str, Any]]],
    ) -> None:
        self.context = context
        self.simulation = Simulation(config, shard=context)
        self.suite = None
        if monitor_specs:
            from repro.explore.monitors import MonitorSuite, build_monitors

            self.suite = MonitorSuite(build_monitors(monitor_specs))
            self.suite.attach(self.simulation)

    # ------------------------------------------------------------------
    def advance(
        self,
        horizon: float,
        inbound: List[Tuple[int, int, Any, float]],
        ghost_updates: List[Tuple[int, float, float]],
    ) -> Dict[str, Any]:
        """Run one window: apply barrier inputs, execute to ``horizon``."""
        simulation = self.simulation
        engine = simulation.sim
        self._apply_ghost_updates(ghost_updates)
        if inbound:
            engine.ingest(
                [
                    (arrival, simulation.channel.receive_remote, (src, dst, message))
                    for src, dst, message, arrival in inbound
                ]
            )
        engine.set_safe_horizon(horizon)
        engine.run(until=horizon)
        outbox = list(self.context.outbox)
        self.context.outbox.clear()
        return {
            "outbox": outbox,
            "movers": self._mover_report(),
            "violation": self._violation(),
        }

    def _apply_ghost_updates(
        self, updates: List[Tuple[int, float, float]]
    ) -> None:
        """Materialize ghost births and barrier position refreshes.

        Moves go through ``mobility.teleport`` rather than raw topology
        calls so the kinetic engine re-certifies every in-flight local
        mover against the ghost's new position, and so the link layer's
        moving flag mirrors what the owning shard's link layer sees
        while the remote node's own motion toggles links.
        """
        simulation = self.simulation
        topology = simulation.topology
        linklayer = simulation.linklayer
        for node_id, x, y in updates:
            point = Point(x, y)
            if node_id in topology:
                if topology.position(node_id) != point:
                    simulation.mobility.teleport(node_id, point)
                continue
            self.context.ghost_nodes.add(node_id)
            linklayer.set_moving(node_id, True)
            linklayer.apply_diff(topology.upsert_node(node_id, point))
            linklayer.set_moving(node_id, False)
            # A zero-distance teleport re-certifies in-flight movers
            # against the newcomer without touching any link.
            simulation.mobility.teleport(node_id, point)

    def _mover_report(self) -> List[Tuple[int, float, float]]:
        """True positions of every owned node that has a mobility model."""
        mobility = self.simulation.mobility
        report = []
        for node_id in mobility.attached_nodes():
            position = mobility.position_now(node_id)
            report.append((node_id, position.x, position.y))
        return report

    def _violation(self) -> Optional[Dict[str, Any]]:
        if self.suite is not None and self.suite.violation is not None:
            return self.suite.violation.to_dict()
        return None

    # ------------------------------------------------------------------
    def finish(self, until: float, threshold: float) -> Dict[str, Any]:
        """Finalize monitors and extract the picklable result payload."""
        if self.suite is not None:
            self.suite.finalize()
        engine = self.simulation.sim
        engine.set_safe_horizon(None)
        if self._violation() is not None:
            # The violating shard stopped mid-window; freeze it there.
            result = self.simulation.run(
                until=engine.now, max_events=0, starvation_threshold=threshold
            )
        else:
            result = self.simulation.run(
                until=until, starvation_threshold=threshold
            )
        return {
            "duration": result.duration,
            "metrics": result.metrics,
            "messages_sent": result.messages_sent,
            "messages_by_kind": result.messages_by_kind,
            "cs_entries": result.cs_entries,
            "starved": result.starved,
            "channel": result.channel,
            "engine": result.engine,
            "probes": result.probes,
            "watchdog_warnings": result.watchdog_warnings,
            "violation": self._violation(),
            "monitor_checks": self.suite.checks if self.suite else 0,
        }


def _worker_main(conn, config, shard_ids, contexts, monitor_specs) -> None:
    """Child-process loop hosting a contiguous group of shards.

    Spawned via fork, so the (possibly unpicklable) config travels by
    memory inheritance; only the barrier payloads cross the pipe.  An
    exception goes back as ``("error", exc)`` in place of a reply, and
    the child then reads on until "stop": were it to exit at once, the
    coordinator could find the pipe reset before it reads the error.
    """
    try:
        hosts = {
            shard_id: _ShardHost(config, contexts[shard_id], monitor_specs)
            for shard_id in shard_ids
        }
        while True:
            message = conn.recv()
            tag = message[0]
            if tag == "advance":
                _, horizon, inbound, ghost_updates = message
                conn.send(
                    {
                        shard_id: hosts[shard_id].advance(
                            horizon,
                            inbound.get(shard_id, []),
                            ghost_updates.get(shard_id, []),
                        )
                        for shard_id in shard_ids
                    }
                )
            elif tag == "finish":
                _, until, threshold = message
                conn.send(
                    {
                        "shards": {
                            shard_id: hosts[shard_id].finish(until, threshold)
                            for shard_id in shard_ids
                        },
                        "peak_rss_kb": peak_rss_kb(),
                    }
                )
            else:  # "stop"
                break
    except Exception as exc:
        traceback.print_exc()
        conn.send(("error", exc))
        while conn.recv()[0] != "stop":
            pass
    finally:
        conn.close()


class _PipeWorker:
    """A forked process hosting a contiguous group of shards."""

    def __init__(self, context, config, shard_ids, contexts, monitor_specs):
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_worker_main,
            args=(child_conn, config, shard_ids, contexts, monitor_specs),
        )
        self._process.start()
        child_conn.close()

    def send(self, message) -> None:
        self._conn.send(message)

    def recv(self):
        return self._conn.recv()

    def close(self) -> None:
        try:
            self._conn.send(("stop",))
        except OSError:
            pass  # the child is gone already
        self._conn.close()
        self._process.join(timeout=30)
        if self._process.is_alive():  # pragma: no cover - hang guard
            self._process.terminate()
            self._process.join()


class ShardedEngine:
    """Coordinator for a spatially sharded run.

    Args:
        config: the scenario, exactly as for :class:`Simulation`.
        num_shards: stripes to split the arena into, at least 2.  The
            shards run in ``min(num_shards, cpu_count)`` forked worker
            processes, each hosting a contiguous group; results are
            identical for every worker count.
        max_speed: upper bound on node speed, required whenever the
            scenario has mobility — it enters the lookahead and the
            ghost-halo width.
        monitor_specs: optional invariant-monitor specs (see
            :func:`repro.explore.monitors.build_monitors`) installed
            per shard; any violation stops the run at the next barrier
            and lands in :attr:`violations`.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        num_shards: int,
        max_speed: Optional[float] = None,
        monitor_specs: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        if num_shards < 2:
            raise ConfigurationError(
                f"num_shards must be >= 2 (one shard is a plain "
                f"Simulation): {num_shards}"
            )
        try:
            self._fork = multiprocessing.get_context("fork")
        except ValueError:
            raise ConfigurationError(
                "sharded runs fork their workers; this platform cannot fork"
            ) from None
        self.num_shards = num_shards
        self.max_speed = max_speed
        self.monitor_specs = monitor_specs
        self.violations: List[Dict[str, Any]] = []
        self.windows = 0
        self.workers = min(num_shards, os.cpu_count() or 1)
        self._config = self._validated_config(config)
        if config.mobility_factory is not None:
            if max_speed is None or max_speed <= 0:
                raise ConfigurationError(
                    "sharded runs with mobility need max_speed > 0 "
                    "(it bounds the lookahead and the ghost halo)"
                )
        self.lookahead = conservative_lookahead(
            config.bounds,
            radio_range=config.radio_range,
            max_speed=max_speed or 0.0,
        )
        self._halo = halo_width(
            config.radio_range, max_speed or 0.0, self.lookahead
        )
        self._partition = build_partition(config.positions, num_shards)
        self._owner = [
            self._partition.shard_of(p) for p in config.positions
        ]
        # Global halo topology: tracks every node's latest reported true
        # position; a cross-owner link in here means the two shards must
        # mirror each other's endpoint.
        self._halo_topo = DynamicTopology(radio_range=self._halo)
        for node_id, position in enumerate(config.positions):
            self._halo_topo.add_node(node_id, position)
        self._ghosts_known: List[set] = [set() for _ in range(num_shards)]
        for a, b in self._halo_topo.links():
            if self._owner[a] != self._owner[b]:
                self._ghosts_known[self._owner[a]].add(b)
                self._ghosts_known[self._owner[b]].add(a)
        self._contexts = [
            ShardContext(
                shard_id=shard_id,
                num_shards=num_shards,
                local_nodes=frozenset(
                    node_id
                    for node_id, owner in enumerate(self._owner)
                    if owner == shard_id
                ),
                ghost_nodes=set(self._ghosts_known[shard_id]),
            )
            for shard_id in range(num_shards)
        ]

    # ------------------------------------------------------------------
    def _validated_config(self, config: ScenarioConfig) -> ScenarioConfig:
        algorithm = config.algorithm
        if callable(algorithm):
            raise ConfigurationError(
                "sharded runs need a registry algorithm name, not a callable"
            )
        name = str(algorithm)
        if name in _UNSHARDABLE:
            raise ConfigurationError(
                f"algorithm {name!r} relies on global shared state and "
                f"cannot run sharded"
            )
        full_topology = DynamicTopology(radio_range=config.radio_range)
        for node_id, position in enumerate(config.positions):
            full_topology.add_node(node_id, position)
        changes: Dict[str, Any] = {}
        if config.delta_override is None:
            # Every shard must build Linial machinery for the same delta;
            # a shard's local view can undercount the global max degree.
            changes["delta_override"] = max(1, full_topology.max_degree())
        if name in _NEEDS_GLOBAL_COLORING and config.initial_colors is None:
            from repro.baselines.choy_singh import legal_coloring

            changes["initial_colors"] = legal_coloring(full_topology)
        return dataclasses.replace(config, **changes) if changes else config

    # ------------------------------------------------------------------
    def run(
        self,
        until: float,
        starvation_threshold: Optional[float] = None,
    ) -> SimulationResult:
        """Advance every shard to ``until`` and merge the results."""
        threshold = (
            starvation_threshold
            if starvation_threshold is not None
            else 0.2 * until
        )
        wall_started = perf_counter()
        workers: List[_PipeWorker] = []
        try:
            for group in self._shard_groups():
                workers.append(
                    _PipeWorker(
                        self._fork,
                        self._config,
                        group,
                        {s: self._contexts[s] for s in group},
                        self.monitor_specs,
                    )
                )
            payloads, rss = self._drive(workers, until, threshold)
        finally:
            for worker in workers:
                worker.close()
        merged = self._merge(payloads, rss, threshold)
        merged.resources["wall_time_s"] = perf_counter() - wall_started
        executed = merged.engine["executed_events"]
        wall = merged.resources["wall_time_s"]
        merged.engine["wall_time_s"] = wall
        merged.engine["events_per_sec"] = executed / wall if wall > 0 else 0.0
        merged.resources["events_per_sec"] = merged.engine["events_per_sec"]
        return merged

    def _shard_groups(self) -> List[List[int]]:
        """Contiguous shard blocks, one per worker."""
        n, w = self.num_shards, self.workers
        return [
            list(range(i * n // w, (i + 1) * n // w)) for i in range(w)
        ]

    # ------------------------------------------------------------------
    def _drive(
        self,
        workers,
        until: float,
        threshold: float,
    ) -> Tuple[Dict[int, Dict[str, Any]], Optional[int]]:
        """The barrier loop: windows of one lookahead until ``until``."""
        lookahead = self.lookahead
        now = 0.0
        inbound: Dict[int, List] = {}
        ghost_updates: Dict[int, List] = {}
        while now < until and not self.violations:
            horizon = min(now + lookahead, until)
            replies = _exchange(
                workers, ("advance", horizon, inbound, ghost_updates)
            )
            self.windows += 1
            now = horizon
            mail: List[Tuple[int, int, Any, float]] = []
            movers: List[Tuple[int, float, float]] = []
            for reply in replies:
                for shard_id in sorted(reply):
                    shard_reply = reply[shard_id]
                    mail.extend(shard_reply["outbox"])
                    movers.extend(shard_reply["movers"])
                    if shard_reply["violation"] is not None:
                        self.violations.append(
                            {"shard": shard_id, **shard_reply["violation"]}
                        )
            inbound = self._route_mail(mail)
            ghost_updates = self._route_ghosts(movers)
        payloads: Dict[int, Dict[str, Any]] = {}
        rss_total: Optional[int] = None
        for reply in _exchange(workers, ("finish", until, threshold)):
            payloads.update(reply["shards"])
            worker_rss = reply["peak_rss_kb"]
            if worker_rss is not None:
                rss_total = (rss_total or 0) + worker_rss
        return payloads, rss_total

    def _route_mail(
        self, mail: List[Tuple[int, int, Any, float]]
    ) -> Dict[int, List]:
        """Sort barrier mail deterministically, bucket by owning shard.

        Per-directed-link arrivals are strictly increasing (the FIFO
        clamp), so ``(arrival, src, dst)`` is a total order and the
        receiving engine's ingestion tickets reproduce it exactly.
        """
        owner = self._owner
        inbound: Dict[int, List] = {}
        for item in sorted(mail, key=lambda m: (m[3], m[0], m[1])):
            inbound.setdefault(owner[item[1]], []).append(item)
        return inbound

    def _route_ghosts(
        self, movers: List[Tuple[int, float, float]]
    ) -> Dict[int, List]:
        """Update the halo view; emit ghost refreshes and births."""
        if not movers:
            return {}
        owner = self._owner
        ghosts_known = self._ghosts_known
        halo_topo = self._halo_topo
        updates: Dict[int, List] = {}
        movers = sorted(movers)
        # Refreshes first: shards already mirroring a mover get its new
        # position (births below must not double-send it).
        for node_id, x, y in movers:
            for shard_id, ghosts in enumerate(ghosts_known):
                if node_id in ghosts:
                    updates.setdefault(shard_id, []).append((node_id, x, y))
        new_pairs: List[Tuple[int, int]] = []
        for node_id, x, y in movers:
            diff = halo_topo.set_position(node_id, Point(x, y))
            for a, b in diff.added:
                if owner[a] != owner[b]:
                    new_pairs.append((a, b))
        for a, b in sorted(new_pairs):
            for local, remote in ((a, b), (b, a)):
                shard_id = owner[local]
                if shard_id == owner[remote]:
                    continue
                if remote in ghosts_known[shard_id]:
                    continue
                ghosts_known[shard_id].add(remote)
                position = halo_topo.position(remote)
                updates.setdefault(shard_id, []).append(
                    (remote, position.x, position.y)
                )
        return updates

    # ------------------------------------------------------------------
    def _merge(
        self,
        payloads: Dict[int, Dict[str, Any]],
        rss_total: Optional[int],
        threshold: float,
    ) -> SimulationResult:
        """One SimulationResult from every shard's payload.

        Owned-node sets are disjoint, so per-node structures merge by
        plain union; counter planes sum; response samples re-sort on
        (completion time, node) to restore one global timeline.
        """
        metrics = MetricsCollector()
        channel: Dict[str, Any] = {}
        snapshots: List[Dict[str, Any]] = []
        messages_by_kind: Dict[str, int] = {}
        warnings: List[Dict[str, Any]] = []
        engine: Dict[str, Any] = {
            "num_shards": self.num_shards,
            "windows": self.windows,
            "lookahead": self.lookahead,
            "executed_events": 0,
            "pending_events": 0,
            "now": 0.0,
            "scheduler": {
                "discipline": "",
                "enqueues": 0,
                "dequeues": 0,
                "cancelled": 0,
                "high_water": 0,
                "compactions": 0,
                "rung_spills": 0,
                "cancelled_in_place": 0,
            },
            "per_shard": [],
        }
        duration = 0.0
        messages_sent = 0
        for shard_id in sorted(payloads):
            payload = payloads[shard_id]
            shard_metrics: MetricsCollector = payload["metrics"]
            metrics.samples.extend(shard_metrics.samples)
            metrics.counters.update(shard_metrics.counters)
            metrics.crashed.update(shard_metrics.crashed)
            metrics._hungry_since.update(shard_metrics._hungry_since)
            metrics._after_demotion.update(shard_metrics._after_demotion)
            messages_sent += payload["messages_sent"]
            _sum_numeric_into(messages_by_kind, payload["messages_by_kind"])
            _sum_numeric_into(channel, payload["channel"])
            if payload["probes"]:
                snapshots.append(payload["probes"])
            warnings.extend(payload["watchdog_warnings"])
            shard_engine = payload["engine"]
            engine["executed_events"] += shard_engine["executed_events"]
            engine["pending_events"] += shard_engine["pending_events"]
            engine["now"] = max(engine["now"], shard_engine["now"])
            shard_sched = shard_engine.get("scheduler", {})
            sched = engine["scheduler"]
            if not sched["discipline"]:
                sched["discipline"] = shard_sched.get("discipline", "")
            sched["high_water"] = max(
                sched["high_water"], shard_sched.get("high_water", 0)
            )
            for key in (
                "enqueues", "dequeues", "cancelled", "compactions",
                "rung_spills", "cancelled_in_place",
            ):
                sched[key] += shard_sched.get(key, 0)
            # Per-shard wall-clock rates depend on worker grouping and
            # host load; keep the per-shard view purely virtual.  The
            # scheduler ops counters are stripped with them, as in
            # every report (see SimulationResult.report).
            engine["per_shard"].append({
                "shard": shard_id,
                **{k: v for k, v in shard_engine.items()
                   if k not in ("wall_time_s", "events_per_sec", "scheduler")},
            })
            duration = max(duration, payload["duration"])
            if payload["violation"] is not None:
                record = {"shard": shard_id, **payload["violation"]}
                if record not in self.violations:
                    self.violations.append(record)
        metrics.samples.sort(key=lambda s: (s.eating_at, s.node))
        warnings.sort(
            key=lambda w: (w.get("hungry_since", 0.0), w.get("node", -1))
        )
        # Instrument-aware merge (min of mins, max of maxes, summed
        # counts with recomputed means) rather than blind numeric
        # summation, which would corrupt histogram extrema.
        probes = merge_snapshots(snapshots)
        coordinator_rss = peak_rss_kb()
        if rss_total is not None and coordinator_rss is not None:
            rss_total += coordinator_rss
        return SimulationResult(
            config=self._config,
            duration=duration,
            metrics=metrics,
            messages_sent=messages_sent,
            messages_by_kind=messages_by_kind,
            starved=metrics.starving(duration, threshold),
            cs_entries=metrics.total_cs_entries(),
            channel=channel,
            engine=engine,
            probes=probes,
            watchdog_warnings=warnings,
            locality=None,
            profile=None,
            resources={
                "wall_time_s": 0.0,  # stamped by run()
                "events_per_sec": 0.0,
                "peak_rss_kb": rss_total,
                "workers": self.workers,
            },
        )


def _exchange(workers: List[_PipeWorker], message: Tuple) -> List[Any]:
    """Send ``message`` to every worker, then collect every reply.

    Every worker gets the message before any reply is read — that
    send/recv split is where the parallelism comes from.  A child's
    exception is re-raised here as itself; the caller's ``close`` then
    stops every worker.
    """
    for worker in workers:
        worker.send(message)
    replies = [worker.recv() for worker in workers]
    for reply in replies:
        if isinstance(reply, tuple):  # ("error", exc)
            raise reply[1]
    return replies


def _sum_numeric_into(target: Dict[str, Any], source: Dict[str, Any]) -> None:
    """Recursively add ``source``'s numeric leaves into ``target``.

    Non-numeric leaves (labels, modes) are kept first-come; shards are
    merged in id order, so the choice is deterministic.
    """
    for key, value in source.items():
        if isinstance(value, dict):
            _sum_numeric_into(target.setdefault(key, {}), value)
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            target.setdefault(key, value)
        else:
            target[key] = target.get(key, 0) + value
