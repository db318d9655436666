"""Shared node assembly for the live runtimes.

Both live transports build their nodes here, the way
:class:`repro.runtime.simulation.Simulation` does: a full
:class:`~repro.net.topology.DynamicTopology` from the scenario
positions, the simulator's own :class:`~repro.net.linklayer.LinkLayer`
over it bound to a :class:`~repro.live.linklayer.LiveLinkLayer`
channel, and the harnesses of the hosted nodes from
:func:`~repro.runtime.simulation.assemble_nodes` — the registry's
algorithm classes, unmodified, with no live subclasses.

Also home of the ``live.*`` probe family: operational counters for the
live planes (deliveries, drops, liveness link-downs, reconnect
attempts), exported through the same registry/OpenMetrics pipeline as
the protocol probes.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Sequence

from repro.live.linklayer import LiveLinkLayer
from repro.metrics.collector import MetricsCollector
from repro.net.linklayer import LinkLayer
from repro.net.topology import DynamicTopology
from repro.obs.registry import MetricRegistry
from repro.runtime.app import HungerWorkload, schedule_link_rows
from repro.runtime.failures import CrashInjector
from repro.runtime.node import NodeHarness
from repro.runtime.simulation import ScenarioConfig, assemble_nodes
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
    """The link layer and harnesses one process hosts."""

    def __init__(
        self,
        config: ScenarioConfig,
        runtime,
        recorder,
        send_transport,
        hosted: Iterable[int],
        probes=None,
        live_probes=None,
    ) -> None:
        self.config = config
        self.runtime = runtime
        runtime.probes = live_probes
        self.rng = RandomSource(config.seed)
        self.metrics = MetricsCollector()
        self.topology = DynamicTopology(radio_range=config.radio_range)
        self.topology.add_nodes(enumerate(config.positions))
        self.linklayer = LinkLayer(runtime, self.topology)
        self.channel = LiveLinkLayer(
            runtime,
            recorder,
            send_transport,
            self.topology,
            self.linklayer.deliver,
            probes=live_probes,
        )
        self.linklayer.bind_channel(self.channel)
        # Substream seeds derive from the (name, node) key alone, so a
        # node's streams are identical no matter which process hosts it.
        self.harnesses: Dict[int, NodeHarness] = assemble_nodes(
            config,
            runtime,
            self.linklayer,
            self.topology,
            hosted,
            recorder.trace,
            self.rng,
            self.metrics,
            probes,
        )

    def drive(self, link_rows: Iterable[Sequence[Any]] = ()) -> None:
        """Schedule the hosted nodes' hunger and crashes, and the
        scenario's ``link_script`` followed by ``link_rows``, with the
        simulator's own scenario-event code (:mod:`repro.runtime.app`)."""
        config = self.config
        at = self.runtime.at
        HungerWorkload(
            self.runtime, at, self.rng, config.think_range,
            config.scripted_hunger,
        ).attach_all(self.harnesses.values())
        CrashInjector(
            self.runtime, at, self.linklayer, self.harnesses,
            metrics=self.metrics,
        ).schedule_all(
            [(t, node) for t, node in config.crashes if node in self.harnesses]
        )
        schedule_link_rows(
            at, self.linklayer, [*(config.link_script or ()), *link_rows]
        )

    def metrics_summary(self) -> Dict[str, int]:
        return {
            "cs_entries": self.metrics.total_cs_entries(),
            "crashed": len(self.metrics.crashed),
        }
