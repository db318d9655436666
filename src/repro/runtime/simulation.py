"""One-call simulation assembly and execution.

:class:`ScenarioConfig` describes an experiment declaratively;
:class:`Simulation` builds the full stack — simulator, topology,
channels, link layer, mobility, node harnesses, algorithm instances,
workload, crash injector, metrics, safety monitor — wires everything,
and runs it.  This is the facade the examples and benchmarks use.
"""

from __future__ import annotations

import gc
import statistics
import sys
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro.errors import ConfigurationError
from repro.metrics.collector import MetricsCollector
from repro.metrics.locality import LocalityReport, measure_failure_locality
from repro.metrics.safety import SafetyMonitor, ignore_violation
from repro.mobility.base import MobilityController, MobilityModel
from repro.net.channel import ChannelLayer
from repro.net.geometry import Point
from repro.net.linklayer import LinkLayer
from repro.net.topology import DynamicTopology
from repro.obs.probes import build_probes
from repro.obs.registry import MetricRegistry
from repro.obs.report import RunReport
from repro.obs.watchdog import StarvationWatchdog
from repro.runtime.app import HungerWorkload, schedule_link_rows, sim_hook
from repro.runtime.failures import CrashInjector
from repro.runtime.node import EffectSink, NodeHarness
from repro.runtime.registry import BuildContext, resolve
from repro.sim.clock import TimeBounds
from repro.sim.engine import Simulator
from repro.sim.rng import RandomSource

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-Unix platforms
    _resource = None


#: A run's result counts a node as starved when its current hungry
#: interval is longer than this share of the run length ``until``.
STARVATION_SHARE = 0.2


def peak_rss_kb() -> Optional[int]:
    """This process's peak resident set size in KiB (None off-Unix)."""
    if _resource is None:  # pragma: no cover
        return None
    rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux but bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover
        rss //= 1024
    return int(rss)


@dataclass
class ScenarioConfig:
    """Declarative description of one simulation run."""

    #: Node positions; node ids are the list indices.
    positions: Sequence[Point]
    radio_range: float = 1.0
    #: Registry name (alg1-greedy, alg1-linial, alg2, chandy-misra,
    #: ordered-ids, choy-singh, oracle) or a registry-style callable
    #: taking a :class:`~repro.runtime.registry.BuildContext` and
    #: returning a per-node factory.
    algorithm: object = "alg2"
    seed: int = 0
    bounds: TimeBounds = field(default_factory=TimeBounds)
    # Workload (stochastic unless a script is given).
    think_range: Tuple[float, float] = (1.0, 5.0)
    scripted_hunger: Optional[Dict[int, List[float]]] = None
    #: Per-node eating durations, consumed in CS-entry order (replay of
    #: recorded live runs).  Nodes not listed — and entries past the end
    #: of a node's list — fall back to the usual RNG draw.
    scripted_eating: Optional[Dict[int, List[float]]] = None
    #: Scripted link churn: ``[time, op, a, b, mover]`` rows with op in
    #: ("up", "down") and ``mover`` the moving endpoint id (or -1 when
    #: neither endpoint moves).  Applied verbatim at the given times,
    #: independent of node positions — the replay path for live-run
    #: recordings, where the recorded churn is the ground truth.
    link_script: Optional[List[Sequence[Any]]] = None
    #: Per-node mobility model factory (node_id -> model or None).  A
    #: :class:`~repro.mobility.plan.MobilityPlan` declares it as data that
    #: serializes, keys the scenario and pickles; any other callable runs,
    #: but the scenario then does not serialize.
    mobility_factory: Optional[Callable[[int], Optional[MobilityModel]]] = None
    #: Crash plan: (time, node_id) pairs.
    crashes: List[Tuple[float, int]] = field(default_factory=list)
    #: Keep the run's effect log (:attr:`Simulation.effects`).
    trace: bool = False
    #: Optional pre-assigned legal coloring (alg1 variants / choy-singh).
    initial_colors: Optional[Dict[int, int]] = None
    #: Override the delta the Linial procedure is built for (mobile runs
    #: where degrees can exceed the initial maximum).
    delta_override: Optional[int] = None
    #: Build the metric registry + protocol probes for this run.  Off by
    #: default: the protocol hot paths then hold None and pay nothing.
    telemetry: bool = False
    #: Starvation-watchdog threshold in virtual time (None = watchdog
    #: off).  A node hungry longer than this triggers one structured
    #: warning per hungry interval.
    watchdog: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.positions:
            raise ConfigurationError("scenario needs at least one node")
        if self.watchdog is not None and self.watchdog <= 0:
            raise ConfigurationError(
                f"watchdog threshold must be > 0: {self.watchdog}"
            )
        for row in self.link_script or ():
            if len(row) != 5 or row[1] not in ("up", "down"):
                raise ConfigurationError(
                    f"link script rows are [time, 'up'|'down', a, b, mover]:"
                    f" {row!r}"
                )
        movers = getattr(self.mobility_factory, "movers", ())  # a plan's
        stray = sorted(n for n in movers if not 0 <= n < len(self.positions))
        if stray:
            raise ConfigurationError(f"mobility plan moves nodes {stray}, "
                                     "which have no position")


@dataclass
class SimulationResult:
    """What a finished (or paused) run exposes."""

    config: ScenarioConfig
    duration: float
    metrics: MetricsCollector
    messages_sent: int
    messages_by_kind: Dict[str, int]
    starved: List[int]
    cs_entries: int
    #: ``ChannelStats.snapshot()`` at run end.
    channel: Dict[str, Any] = field(default_factory=dict)
    #: ``Simulator.stats()`` at run end.
    engine: Dict[str, Any] = field(default_factory=dict)
    #: ``MetricRegistry.snapshot()`` — empty when telemetry was off.
    probes: Dict[str, Any] = field(default_factory=dict)
    #: Structured starvation warnings (empty when the watchdog was off).
    watchdog_warnings: List[Dict[str, Any]] = field(default_factory=list)
    #: Failure-locality summary when the scenario had a crash plan.
    locality: Optional[Dict[str, Any]] = None

    @property
    def response_times(self) -> List[float]:
        return self.metrics.response_times()

    def messages_per_cs(self) -> Optional[float]:
        if self.cs_entries == 0:
            return None
        return self.messages_sent / self.cs_entries

    def report(self) -> RunReport:
        """This run as a schema-versioned, JSON-ready :class:`RunReport`.

        Everything in it derives from virtual time and deterministic
        counters, so fixed-seed runs yield bit-identical reports.
        """
        # Local import: config_io imports this module for ScenarioConfig.
        from repro.harness.config_io import config_to_dict

        try:
            config_dict = config_to_dict(self.config)
        except ConfigurationError:
            # Opaque callables don't serialize; keep a stub so the
            # report still says what ran.
            config_dict = {
                "algorithm": getattr(
                    self.config.algorithm, "__name__",
                    str(self.config.algorithm),
                ),
                "seed": self.config.seed,
                "nodes": len(self.config.positions),
            }
        # Wall-clock throughput keys are non-deterministic, and the
        # scheduler ops counters describe the queue's data structure
        # (they differ under the tests' heap oracle), not the run; the
        # report's engine block keeps only the virtual-time counters.
        # Queue behaviour is surfaced via the ``engine.sched_ops`` probe
        # when telemetry is on.
        engine = dict(self.engine)
        engine.pop("wall_time_s", None)
        engine.pop("events_per_sec", None)
        engine.pop("scheduler", None)
        return RunReport(
            config=config_dict,
            duration=self.duration,
            response=self._response_summary(),
            nodes=self._node_summary(),
            channel=dict(self.channel),
            engine=engine,
            probes=dict(self.probes),
            starved=list(self.starved),
            locality=self.locality,
            warnings=list(self.watchdog_warnings),
        )

    def openmetrics(self) -> str:
        """This run's probe snapshot in OpenMetrics text format.

        Empty-registry runs (telemetry off) still render a valid
        (sample-free) exposition ending in ``# EOF``.
        """
        from repro.obs.openmetrics import render_openmetrics

        return render_openmetrics(self.probes)

    # ------------------------------------------------------------------
    def _response_summary(self) -> Dict[str, Any]:
        times = self.metrics.response_times()
        summary: Dict[str, Any] = {
            "count": len(times),
            "cs_entries": self.cs_entries,
            "after_demotion": sum(
                1 for s in self.metrics.samples if s.after_demotion
            ),
        }
        if times:
            ordered = sorted(times)
            summary["mean"] = statistics.fmean(times)
            summary["median"] = statistics.median(ordered)
            summary["p95"] = ordered[
                min(len(ordered) - 1, int(0.95 * len(ordered)))
            ]
            summary["min"] = ordered[0]
            summary["max"] = ordered[-1]
            summary["stdev"] = (
                statistics.pstdev(times) if len(times) > 1 else 0.0
            )
        return summary

    def _node_summary(self) -> Dict[str, Any]:
        per_node = {
            str(node): {
                "hungry": c.hungry_count,
                "cs_entries": c.cs_entries,
                "cs_completions": c.cs_completions,
                "demotions": c.demotions,
            }
            for node, c in sorted(self.metrics.counters.items())
        }
        return {
            "count": len(self.config.positions),
            "crashed": {
                str(node): time
                for node, time in sorted(self.metrics.crashed.items())
            },
            "per_node": per_node,
        }


def assemble_nodes(
    config: ScenarioConfig,
    runtime,
    linklayer: LinkLayer,
    topology: DynamicTopology,
    hosted: Iterable[int],
    note: EffectSink,
    rng_source: RandomSource,
    probes,
) -> Dict[int, NodeHarness]:
    """Build, bind and register the harness of every hosted node.

    The node assembly of both runtimes.  The algorithm factory is
    resolved against the whole scenario ``topology`` (colorings need
    the global graph even when a process hosts one node) with the
    ``coloring`` substream of ``rng_source``.  Each hosted node then
    gets an unmodified :class:`NodeHarness` registered with
    ``linklayer`` and reporting to the run's one effect sink ``note``,
    and bootstraps its initial per-link protocol state
    (forks, priorities, colors) in one bulk call over its ascending
    neighbor list.
    """
    context = BuildContext(
        topology=topology,
        n=len(config.positions),
        delta=config.delta_override or max(1, topology.max_degree()),
        initial_colors=config.initial_colors,
        rng=rng_source.stream("coloring"),
    )
    if callable(config.algorithm):
        factory = config.algorithm(context)
    else:
        factory = resolve(config.algorithm, context)
    harnesses: Dict[int, NodeHarness] = {}
    for node_id in sorted(hosted):
        harness = NodeHarness(
            node_id,
            runtime,
            linklayer,
            config.bounds,
            note,
            eat_rng=None,
            probes=probes,
            rng_source=rng_source,
        )
        harness.bind(factory(harness))
        harnesses[node_id] = harness
        linklayer.register(node_id, harness)
    sorted_neighbors = topology.sorted_neighbors
    for node_id, harness in harnesses.items():
        harness.algorithm.bootstrap_peers(sorted_neighbors(node_id))
    return harnesses


class Simulation:
    """A fully wired simulation instance.

    Every node of ``config.positions`` is in the topology and has a
    harness, a workload attachment and (if the factory gives it one) a
    mobility model.  Per-node RNG substreams are keyed by node id.
    """

    def __init__(self, config: ScenarioConfig) -> None:
        # City-scale construction allocates a handful of container
        # objects per node, essentially all of which stay live, so
        # cyclic-GC passes during the build scan an ever-growing live
        # set and reclaim nothing — ~40% of construction wall time at
        # n=100k.  Suspend collection for the build (restored even on
        # failure); the deferred scan afterwards is paid once.
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            self._build(config)
        finally:
            if was_enabled:
                gc.enable()

    def _build(self, config: ScenarioConfig) -> None:
        self.config = config
        self.sim = Simulator()
        # Already-recorded scheduler ops, per counter key: run() records
        # only the delta into the live registry so repeated run() calls
        # (paused runs) never double-count.
        self._sched_ops_recorded: Dict[str, int] = {}
        self.rng = RandomSource(config.seed)
        #: The effect log: ``(time, tag, node)`` for every state
        #: transition and algorithm stage mark, in execution order —
        #: or None when ``config.trace`` is off.
        self.effects: Optional[List[Tuple[float, str, int]]] = (
            [] if config.trace else None
        )
        self.bounds = config.bounds

        node_ids = range(len(config.positions))

        # --- network substrate -------------------------------------
        self.topology = DynamicTopology(radio_range=config.radio_range)
        # Bulk insertion: O(n + links) instead of a per-arrival link
        # scan; nobody consumes construction-time LinkDiffs.
        self.topology.add_nodes(
            (node_id, config.positions[node_id]) for node_id in node_ids
        )
        self.linklayer = LinkLayer(self.topology)
        self.channel = ChannelLayer(
            self.sim,
            self.topology,
            self.bounds,
            self.rng.stream("channel"),
            deliver=self.linklayer.deliver,
        )
        self.linklayer.bind_channel(self.channel)

        # --- metrics & monitors -------------------------------------
        self.metrics = MetricsCollector()
        #: Live registry + probes only when the scenario opted in; every
        #: component downstream then holds None and pays nothing.
        self.registry: Optional[MetricRegistry] = (
            MetricRegistry() if config.telemetry else None
        )
        self.probes = build_probes(self.registry)
        self.watchdog: Optional[StarvationWatchdog] = None
        if config.watchdog is not None:
            self.watchdog = StarvationWatchdog(
                self.sim,
                self.metrics,
                threshold=config.watchdog,
                registry=self.registry,
            )
            self.watchdog.start()
        self.harnesses: Dict[int, NodeHarness] = {}
        self.safety = SafetyMonitor(self.topology, self.harnesses)
        self.linklayer.observers.append(
            lambda kind, a, b: self.safety.on_link_event(kind, a, b, self.sim.now)
        )

        # --- the effect sink ----------------------------------------
        # One sink for every harness: the effect log (trace runs), then
        # the collector, then the safety check of a CS entry — so a
        # SafetyViolation is raised after the entry is logged and counted.
        intake = self.metrics.note_fx
        check_entry = self.safety.note_eating_start
        if self.effects is None:

            def note(time: float, tag: str, node: int) -> None:
                intake(time, tag, node)
                if tag == "enter":
                    check_entry(node, time)
        else:
            keep = self.effects.append

            def note(time: float, tag: str, node: int) -> None:
                keep((time, tag, node))
                intake(time, tag, node)
                if tag == "enter":
                    check_entry(node, time)

        # --- nodes and algorithms -----------------------------------
        self.harnesses.update(
            assemble_nodes(
                config,
                self.sim,
                self.linklayer,
                self.topology,
                node_ids,
                note,
                self.rng,
                self.probes,
            )
        )
        if not self.harnesses[0].algorithm.guarantees_exclusion:
            self.safety.flag = ignore_violation
        if config.scripted_eating is not None:
            for node_id, harness in self.harnesses.items():
                durations = config.scripted_eating.get(node_id)
                if durations:
                    harness.script_eating(durations)

        # --- scenario events ----------------------------------------
        # Stochastic attach (per-node RNG seeding dominates city-scale
        # construction) runs at engine start, drawing what eager would.
        at = sim_hook(self.sim)
        harnesses = list(self.harnesses.values())
        self.workload = HungerWorkload(
            self.sim, at, self.rng, config.think_range, config.scripted_hunger
        )
        if config.scripted_hunger is None:
            self.sim.defer_startup(lambda: self.workload.attach_all(harnesses))
        else:
            self.workload.attach_all(harnesses)
        schedule_link_rows(at, self.linklayer, config.link_script or ())

        # --- mobility --------------------------------------------------
        self.mobility = MobilityController(
            self.sim,
            self.topology,
            self.linklayer,
            self.rng,
            probes=self.probes,
        )
        if config.mobility_factory is not None:
            for node_id in node_ids:
                model = config.mobility_factory(node_id)
                if model is not None:
                    self.mobility.attach(node_id, model)
            self.mobility.start()

        # --- failures --------------------------------------------------
        self.failures = CrashInjector(
            at,
            self.linklayer,
            self.harnesses,
            mobility=self.mobility,
        )
        self.failures.schedule_all(config.crashes)

    # ------------------------------------------------------------------
    def algorithm_of(self, node_id: int):
        """The algorithm instance running on one node."""
        return self.harnesses[node_id].algorithm

    def run(
        self, until: float, max_events: Optional[int] = None
    ) -> SimulationResult:
        """Run up to virtual time ``until`` and summarize.

        The result's ``starved`` lists the nodes whose current hungry
        interval is longer than :data:`STARVATION_SHARE` of ``until``.
        """
        self.sim.run(until=until, max_events=max_events)
        locality: Optional[Dict[str, Any]] = None
        if self.failures.crashes:
            locality = self.locality_report().to_dict()
        engine_stats = self.sim.stats()
        if self.registry is not None:
            self._record_sched_ops(engine_stats["scheduler"])
        return SimulationResult(
            config=self.config,
            duration=self.sim.now,
            metrics=self.metrics,
            messages_sent=self.channel.stats.sent,
            messages_by_kind=dict(self.channel.stats.sent_by_kind),
            starved=self.metrics.starving(
                self.sim.now, STARVATION_SHARE * until
            ),
            cs_entries=self.metrics.total_cs_entries(),
            channel=self.channel.stats.snapshot(),
            engine=engine_stats,
            probes=(
                self.registry.snapshot() if self.registry is not None else {}
            ),
            watchdog_warnings=(
                self.watchdog.warning_dicts()
                if self.watchdog is not None
                else []
            ),
            locality=locality,
        )

    def _record_sched_ops(self, sched: Dict[str, Any]) -> None:
        """Mirror the engine's scheduler counters into the registry.

        Recorded as deltas against what earlier ``run()`` calls already
        recorded, so paused/windowed runs accumulate exactly once.  The
        counter family exists (at zero) even for an idle run, keeping
        the probe snapshot schema stable.
        """
        assert self.registry is not None
        counter = self.registry.counter(
            "engine.sched_ops",
            "scheduler queue operations by kind",
        )
        recorded = self._sched_ops_recorded
        for key in (
            "enqueues", "dequeues", "cancelled", "compactions",
            "rung_spills",
        ):
            value = sched[key]
            delta = value - recorded.get(key, 0)
            if delta:
                counter.inc(delta, key=key)
                recorded[key] = value

    # ------------------------------------------------------------------
    def locality_report(self, patience: Optional[float] = None) -> LocalityReport:
        """Failure-locality probe over this run (experiment E3).

        A node counts as *starved* when, at the end of the run, its
        current hungry interval has lasted longer than ``patience``
        (default: a quarter of the elapsed run).  A genuinely starved
        node stays hungry forever, so any sufficiently long run
        classifies it correctly; nodes that merely happen to be hungry
        at the final instant do not.
        """
        crash_times = [e.time for e in self.failures.crashes]
        if not crash_times:
            raise ConfigurationError("locality report needs a crash plan")
        first_crash = min(crash_times)
        if patience is None:
            patience = 0.25 * max(self.sim.now - first_crash, 1e-9)
        starved = set(self.metrics.starving(self.sim.now, patience))
        hungry_after = {
            s.node for s in self.metrics.samples if s.eating_at >= first_crash
        }
        hungry_after |= set(self.metrics.hungry_nodes())
        return measure_failure_locality(
            self.topology,
            crashed=[e.node_id for e in self.failures.crashes],
            hungry_after_crash=hungry_after,
            ate_after_crash=hungry_after - starved,
        )


def run_simulation(config: ScenarioConfig, until: float) -> SimulationResult:
    """Convenience: build and run a scenario in one call."""
    return Simulation(config).run(until=until)
