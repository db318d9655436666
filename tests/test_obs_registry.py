"""Tests for the metric registry: instruments, get-or-create, null idiom."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    live_registry,
)


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------


def test_counter_totals_and_key_breakdown():
    c = Counter("doorway.cross")
    c.inc()
    c.inc(2, key="ADr")
    c.inc(key="SDr")
    snap = c.snapshot()
    assert snap == {
        "kind": "counter", "value": 4, "by_key": {"ADr": 2, "SDr": 1},
    }


def test_counter_without_keys_snapshots_flat():
    c = Counter("fork.requests")
    c.inc(3)
    assert c.snapshot() == {"kind": "counter", "value": 3}


def test_gauge_tracks_level_and_high_water():
    g = Gauge("doorway.occupancy")
    g.inc()
    g.inc()
    g.dec()
    assert g.value == 1
    assert g.high_water == 2
    g.set(5)
    g.set(3)
    assert g.value == 3
    assert g.high_water == 5


def test_gauge_keyed_levels_are_independent():
    g = Gauge("doorway.occupancy")
    g.inc(key="ADr")
    g.inc(key="ADr")
    g.inc(key="SDf")
    g.dec(key="ADr")
    assert g.value == 0  # the unkeyed level is separate
    snap = g.snapshot()
    assert snap["by_key"] == {"ADr": 1, "SDf": 1}
    assert snap["high_water_by_key"] == {"ADr": 2, "SDf": 1}


def test_histogram_streaming_summary():
    h = Histogram("fork.grant_latency")
    for value in (2.0, 4.0, 6.0):
        h.observe(value)
    snap = h.snapshot()
    assert snap["count"] == 3 and snap["total"] == 12.0
    assert snap["min"] == 2.0 and snap["max"] == 6.0 and snap["mean"] == 4.0


def test_histogram_keyed_cells():
    h = Histogram("doorway.time_behind")
    h.observe(1.0, key="ADr")
    h.observe(3.0, key="ADr")
    h.observe(10.0, key="SDr")
    snap = h.snapshot()
    assert snap["by_key"]["ADr"]["mean"] == 2.0
    assert snap["by_key"]["SDr"]["mean"] == 10.0
    assert set(snap["by_key"]) == {"ADr", "SDr"}
    assert snap["mean"] == pytest.approx(14.0 / 3)
    assert snap["by_key"]["ADr"]["count"] == 2


def test_empty_histogram_mean_is_none():
    h = Histogram("x")
    assert "mean" not in h.snapshot()
    assert h.snapshot()["min"] is None


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_registry_get_or_create_returns_same_instrument():
    r = MetricRegistry()
    a = r.counter("hits")
    b = r.counter("hits")
    assert a is b
    a.inc()
    assert r.counter("hits").value == 1


def test_registry_rejects_kind_mismatch():
    r = MetricRegistry()
    r.counter("x")
    with pytest.raises(ConfigurationError):
        r.gauge("x")
    with pytest.raises(ConfigurationError):
        r.histogram("x")


def test_registry_snapshot_is_sorted_and_json_ready():
    import json

    r = MetricRegistry()
    r.counter("b.second").inc()
    r.gauge("a.first").set(2)
    r.histogram("c.third").observe(1.5)
    snap = r.snapshot()
    assert list(snap) == ["a.first", "b.second", "c.third"]
    json.dumps(snap)  # must serialize without custom encoders
    assert r.names() == ["a.first", "b.second", "c.third"]
    assert r.get("a.first") is not None
    assert r.get("missing") is None


# ----------------------------------------------------------------------
# The None-when-off idiom
# ----------------------------------------------------------------------


def test_live_registry_normalizes_handles():
    real = MetricRegistry()
    assert live_registry(real) is real
    assert live_registry(None) is None
    assert live_registry(NULL_REGISTRY) is None


def test_null_registry_still_hands_out_instruments():
    # Code that wants an always-valid registry can use NULL_REGISTRY;
    # it records (harmlessly) but live_registry screens it off hot paths.
    c = NULL_REGISTRY.counter("anything")
    c.inc()
    assert not NULL_REGISTRY.enabled


# ----------------------------------------------------------------------
# Buckets and snapshot merging
# ----------------------------------------------------------------------


def test_histogram_buckets_are_cumulative():
    h = Histogram("rt", buckets=(1.0, 5.0, 10.0))
    for value in (0.5, 0.7, 3.0, 7.0, 100.0):
        h.observe(value)
    snap = h.snapshot()
    assert snap["buckets"] == {"1": 2, "5": 3, "10": 4, "+Inf": 5}


def test_histogram_boundary_lands_in_its_bucket():
    # le is inclusive: an observation exactly on a bound counts there.
    h = Histogram("rt", buckets=(1.0, 5.0))
    h.observe(1.0)
    h.observe(5.0)
    assert h.snapshot()["buckets"] == {"1": 1, "5": 2, "+Inf": 2}


def test_histogram_default_buckets_cover_decades():
    h = Histogram("rt")
    h.observe(0.002)
    h.observe(900.0)
    buckets = h.snapshot()["buckets"]
    assert buckets["0.0025"] == 1
    assert buckets["1000"] == 2
    assert buckets["+Inf"] == 2


def test_empty_histogram_snapshot_has_no_buckets():
    # Bucket-less empty snapshots keep pre-1.3 report layouts stable
    # for never-observed instruments.
    assert "buckets" not in Histogram("rt").snapshot()


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ConfigurationError):
        Histogram("rt", buckets=(5.0, 1.0))
    with pytest.raises(ConfigurationError):
        Histogram("rt", buckets=(1.0, 1.0))
    with pytest.raises(ConfigurationError):
        Histogram("rt", buckets=())


def test_registry_histogram_accepts_buckets_once():
    r = MetricRegistry()
    h = r.histogram("rt", "resp", buckets=(1.0, 2.0))
    assert r.histogram("rt") is h
    assert h.bounds == (1.0, 2.0)
    with pytest.raises(ConfigurationError):
        r.counter("rt")
