"""Tests for the algorithm registry."""

import pytest

from repro.errors import ConfigurationError
from repro.net.geometry import line_positions
from repro.net.topology import DynamicTopology
from repro.runtime.registry import ALGORITHMS, BuildContext, resolve


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def build_ctx(n=4):
    topo = DynamicTopology(radio_range=1.0)
    for i, p in enumerate(line_positions(n, 1.0)):
        topo.add_node(i, p)
    return BuildContext(topology=topo, n=n, delta=topo.max_degree())


def test_registry_has_all_documented_names():
    expected = {
        "alg1-greedy", "alg1-linial", "alg1-random", "alg2",
        "chandy-misra", "ordered-ids", "choy-singh", "oracle",
        "global-oracle", "token-mutex",
        "alg2-nonotify", "alg1-noreturn", "alg1-nodoorway", "alg1-selforg",
    }
    assert expected == set(ALGORITHMS)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_every_entry_builds_an_algorithm(name):
    from helpers import FakeNode

    ctx = build_ctx()
    factory = resolve(name, ctx)
    algorithm = factory(FakeNode(0, (1,)))
    assert hasattr(algorithm, "on_hungry")
    assert hasattr(algorithm, "on_message")


def test_resolve_unknown_name():
    with pytest.raises(ConfigurationError) as exc:
        resolve("definitely-not-real", build_ctx())
    assert "available" in str(exc.value)


def test_oracle_scheduler_shared_within_context():
    ctx = build_ctx()
    factory = resolve("oracle", ctx)
    from helpers import FakeNode

    a = factory(FakeNode(0, ()))
    b = factory(FakeNode(1, ()))
    assert a.scheduler is b.scheduler



# ----------------------------------------------------------------------
# The effect log
# ----------------------------------------------------------------------
def _mobile_crash_config(algorithm, trace):
    from repro.mobility.plan import MobilityPlan
    from repro.net.geometry import grid_positions
    from repro.runtime.simulation import ScenarioConfig

    return ScenarioConfig(
        positions=grid_positions(16, 1.0),
        radio_range=1.2,
        algorithm=algorithm,
        seed=5,
        think_range=(0.5, 2.0),
        crashes=[(20.0, 5)],
        delta_override=15,
        mobility_factory=MobilityPlan.of(
            "waypoint", range(0, 16, 3), width=4, height=4,
            speed_range=(0.5, 1.5), pause_range=(1.0, 5.0),
        ),
        trace=trace,
    )


@pytest.mark.parametrize("algorithm", ["alg1-greedy", "alg2"])
def test_effect_log_holds_every_transition(algorithm):
    from collections import Counter

    from repro.runtime.simulation import Simulation

    sim = Simulation(_mobile_crash_config(algorithm, trace=True))
    result = sim.run(until=150.0)
    counts = Counter((tag, node) for _, tag, node in sim.effects)
    metrics = result.metrics
    for node, counters in metrics.counters.items():
        assert counts["hungry", node] == counters.hungry_count, node
        assert counts["enter", node] == counters.cs_entries, node
        assert counts["exit", node] == counters.cs_completions, node
        assert counts["demote", node] == counters.demotions, node
    assert {node for (_, node) in counts} <= set(metrics.counters) | {5}
    crashed = {node: time for time, tag, node in sim.effects
               if tag == "crashed"}
    assert crashed == metrics.crashed == {5: 20.0}
    assert sum(c.demotions for c in metrics.counters.values()) > 0
    stamps = [time for time, _, _ in sim.effects]
    assert stamps == sorted(stamps)

    assert Simulation(_mobile_crash_config(algorithm, trace=False)).effects is None
