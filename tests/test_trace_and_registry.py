"""Tests for the trace log and the algorithm registry."""

import pytest

from repro.errors import ConfigurationError
from repro.net.geometry import line_positions
from repro.net.topology import DynamicTopology
from repro.runtime.registry import ALGORITHMS, BuildContext, resolve
from repro.sim.trace import TraceLog


# ----------------------------------------------------------------------
# TraceLog
# ----------------------------------------------------------------------


def test_trace_records_and_filters():
    log = TraceLog()
    log.record(1.0, "a", 1, x=1)
    log.record(2.0, "b", 1)
    log.record(3.0, "a", 2)
    assert len(log.select()) == 3
    assert [r.time for r in log.select(category="a")] == [1.0, 3.0]
    assert [r.time for r in log.select(node=1)] == [1.0, 2.0]
    assert log.select(category="a", node=2)[0].time == 3.0
    assert log.select(predicate=lambda r: r.time > 1.5)[0].category == "b"


def test_trace_disabled_is_free():
    log = TraceLog(enabled=False)
    log.record(1.0, "a", 1)
    assert log.select() == []


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


def test_trace_keeps_every_record():
    log = TraceLog()
    for i in range(1000):
        log.record(float(i), "tick", 0)
    assert [r.time for r in log.select()] == [float(i) for i in range(1000)]
