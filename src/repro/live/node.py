"""Shared node assembly for the live runtimes.

Both live transports build their nodes here, the same way
:class:`repro.runtime.simulation.Simulation` does: a full
:class:`~repro.net.topology.DynamicTopology` from the scenario
positions (the coloring/registry build step needs the global graph even
when the process will only host one node), the registry's
:func:`~repro.runtime.registry.resolve`, and an *unmodified*
:class:`~repro.runtime.node.NodeHarness` per hosted node.  The
algorithm classes are exactly the registered ones — no live subclasses.

Also home of the ``live.*`` probe family: operational counters for the
live planes (deliveries, drops, liveness link-downs, reconnect
attempts), exported through the same registry/OpenMetrics pipeline as
the protocol probes.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.metrics.collector import MetricsCollector
from repro.net.topology import DynamicTopology
from repro.obs.registry import MetricRegistry
from repro.runtime.node import NodeHarness
from repro.runtime.registry import BuildContext, resolve
from repro.runtime.simulation import ScenarioConfig
from repro.sim.rng import RandomSource


class LiveProbes:
    """Operational counters for the live transports (``live.*``)."""

    __slots__ = ("registry", "events", "link_down", "reconnects")

    def __init__(self, registry: MetricRegistry) -> None:
        self.registry = registry
        self.events = registry.counter(
            "live.events", "live executions dispatched, by row kind"
        )
        self.link_down = registry.counter(
            "live.link_down", "live link-down events, by reason"
        )
        self.reconnects = registry.counter(
            "live.reconnects", "socket reconnect attempts"
        )

    def inc_event(self, kind: str) -> None:
        self.events.inc(key=kind)

    def note_link_down(self, reason: str) -> None:
        self.link_down.inc(key=reason)

    def note_reconnect(self) -> None:
        self.reconnects.inc()


class LiveNodeSet:
    """The harnesses (and shared collaborators) one process hosts."""

    def __init__(
        self,
        config: ScenarioConfig,
        runtime,
        linklayer,
        trace,
        hosted: Iterable[int],
        probes=None,
    ) -> None:
        self.config = config
        self.metrics = MetricsCollector()
        self.topology = DynamicTopology(radio_range=config.radio_range)
        self.topology.add_nodes(enumerate(config.positions))
        n = len(config.positions)
        delta = config.delta_override or max(1, self.topology.max_degree())
        context = BuildContext(
            topology=self.topology,
            n=n,
            delta=delta,
            initial_colors=config.initial_colors,
            rng=RandomSource(config.seed).stream("coloring"),
        )
        if callable(config.algorithm):
            factory = config.algorithm(context)
        else:
            factory = resolve(config.algorithm, context)
        # One RandomSource per process: substream seeds derive from the
        # (name, node) key alone, so a node's streams are identical no
        # matter which process hosts it.
        rng_source = RandomSource(config.seed)
        self.harnesses: Dict[int, NodeHarness] = {}
        for node_id in sorted(hosted):
            harness = NodeHarness(
                node_id,
                runtime,
                linklayer,
                config.bounds,
                trace,
                eat_rng=None,
                metrics=self.metrics,
                safety=None,
                probes=probes,
                rng_source=rng_source,
            )
            harness.bind(factory(harness))
            self.harnesses[node_id] = harness
            linklayer.register(node_id, harness)
        for node_id, harness in self.harnesses.items():
            harness.algorithm.bootstrap_peers(
                self.topology.sorted_neighbors(node_id)
            )

    def metrics_summary(self) -> Dict[str, int]:
        return {
            "cs_entries": self.metrics.total_cs_entries(),
            "crashed": len(self.metrics.crashed),
        }
