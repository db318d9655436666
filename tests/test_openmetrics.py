"""OpenMetrics exporter: format round-trips, name validity, serving.

Every rendering path is pushed through the strict hand-rolled parser in
``helpers.parse_openmetrics`` — the parser enforces the exposition
rules (declared families, ``_total`` counters, cumulative buckets
ending at ``+Inf``, single trailing ``# EOF``), so a passing round-trip
is a format conformance check, not just a smoke test.
"""

from __future__ import annotations

import threading
import urllib.request

import pytest
from helpers import parse_openmetrics

from repro.errors import ConfigurationError
from repro.obs.openmetrics import (
    CONTENT_TYPE,
    build_metrics_server,
    escape_label_value,
    help_catalogue,
    metric_name,
    openmetrics_from_report,
    render_openmetrics,
)
from repro.obs.registry import MetricRegistry, merge_snapshots
from repro.runtime.simulation import ScenarioConfig, Simulation
from repro.sim.clock import TimeBounds
from repro.net.geometry import line_positions


#: The descriptions ``_loaded_registry`` gives its instruments.
HELP = {
    "mutex.requests": "CS requests",
    "mutex.queue_depth": "Forks held",
    "mutex.response_time": "Hungry to eating",
}


def _loaded_registry() -> MetricRegistry:
    registry = MetricRegistry()
    requests = registry.counter("mutex.requests", "CS requests")
    requests.inc()
    requests.inc(key=3)
    depth = registry.gauge("mutex.queue_depth", "Forks held")
    depth.set(4)
    depth.set(2)
    response = registry.histogram("mutex.response_time", "Hungry to eating")
    for value in (0.004, 0.2, 1.7, 80.0):
        response.observe(value)
    response.observe(0.5, key=1)
    return registry


def _config(**overrides) -> ScenarioConfig:
    defaults = dict(
        positions=list(line_positions(6, spacing=1.0)),
        radio_range=1.0,
        algorithm="alg2",
        seed=7,
        bounds=TimeBounds(nu=1.0, tau=1.0),
        telemetry=True,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


# -- names and labels --------------------------------------------------------


def test_metric_name_translates_probe_dots():
    assert metric_name("alg2.switches") == "repro_alg2_switches"
    assert metric_name("explore.fuzz-runs") == "repro_explore_fuzz_runs"


def test_metric_name_rejects_unrepresentable():
    with pytest.raises(ConfigurationError):
        metric_name("bad metric!")


def test_every_catalogue_probe_renders_to_a_valid_identifier():
    """Property over the full probe catalogue: names always export.

    ``help_catalogue`` holds every probe the protocol / watchdog /
    explore planes register; each must survive ``metric_name`` and come
    with non-empty help text.
    """
    catalogue = help_catalogue()
    assert len(catalogue) >= 10
    for probe, help_text in catalogue.items():
        name = metric_name(probe)
        assert name.startswith("repro_")
        assert help_text, f"probe {probe!r} has no help text"
    assert "alg2.switches" in catalogue
    assert "watchdog.warnings" in catalogue
    assert "explore.violations" in catalogue


def test_escape_label_value():
    assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'


# -- rendering round-trips ---------------------------------------------------


def test_registry_round_trips_through_strict_parser():
    families = parse_openmetrics(
        render_openmetrics(_loaded_registry().snapshot(), help_texts=HELP)
    )
    counter = families["repro_mutex_requests"]
    assert counter["type"] == "counter"
    assert counter["help"] == "CS requests"
    assert ("repro_mutex_requests_total", (), 2.0) in counter["samples"]
    assert (
        "repro_mutex_requests_total", (("key", "3"),), 1.0
    ) in counter["samples"]

    gauge = families["repro_mutex_queue_depth"]
    assert gauge["samples"] == [("repro_mutex_queue_depth", (), 2.0)]
    peak = families["repro_mutex_queue_depth_high_water"]
    assert peak["samples"] == [
        ("repro_mutex_queue_depth_high_water", (), 4.0)
    ]

    histogram = families["repro_mutex_response_time"]
    assert histogram["type"] == "histogram"
    plain = [
        (name, labels, value)
        for name, labels, value in histogram["samples"]
        if ("key", "1") not in labels
    ]
    # Keyed observations also land in the aggregate cell (same
    # semantics as keyed counter increments): 4 plain + 1 keyed.
    count = [v for n, _, v in plain if n.endswith("_count")]
    assert count == [5.0]
    infs = [
        v for n, labels, v in plain
        if n.endswith("_bucket") and ("le", "+Inf") in labels
    ]
    assert infs == [5.0]
    keyed_counts = [
        v for n, labels, v in histogram["samples"]
        if n.endswith("_count") and ("key", "1") in labels
    ]
    assert keyed_counts == [1.0]
    assert families["repro_mutex_response_time_min"]["samples"][0][2] == 0.004
    assert families["repro_mutex_response_time_max"]["samples"][0][2] == 80.0


def test_empty_registry_renders_bare_eof():
    assert render_openmetrics(MetricRegistry().snapshot()) == "# EOF\n"
    assert parse_openmetrics(render_openmetrics({})) == {}


def test_merged_snapshot_round_trips():
    merged = merge_snapshots(
        [_loaded_registry().snapshot(), _loaded_registry().snapshot()]
    )
    families = parse_openmetrics(render_openmetrics(merged))
    counter = families["repro_mutex_requests"]
    assert ("repro_mutex_requests_total", (), 4.0) in counter["samples"]
    # min/max survive the merge instead of being summed.
    assert families["repro_mutex_response_time_min"]["samples"][0][2] == 0.004
    assert families["repro_mutex_response_time_max"]["samples"][0][2] == 80.0


def test_sharded_rendering_labels_every_sample():
    shards = {
        0: _loaded_registry().snapshot(),
        1: _loaded_registry().snapshot(),
    }
    families = parse_openmetrics(render_openmetrics(shards=shards))
    counter = families["repro_mutex_requests"]
    shard_labels = {
        dict(labels).get("shard") for _, labels, _ in counter["samples"]
    }
    assert shard_labels == {"0", "1"}
    for family in families.values():
        for _, labels, _ in family["samples"]:
            assert dict(labels).get("shard") in {"0", "1"}


def test_simulation_result_exports_openmetrics():
    result = Simulation(_config()).run(until=40.0)
    families = parse_openmetrics(result.openmetrics())
    assert any(name.startswith("repro_alg2_") for name in families)
    # The declared help text comes from the live probe catalogue.
    assert families["repro_alg2_switches"]["help"]


def test_report_export_matches_result_export():
    result = Simulation(_config()).run(until=40.0)
    assert openmetrics_from_report(result.report()) == result.openmetrics()


def test_sharded_run_exports_shard_labeled_metrics():
    from repro.sim.sharded import ShardedEngine

    config = _config(positions=list(line_positions(12, spacing=1.0)))
    result = ShardedEngine(config, num_shards=2, workers=1).run(until=40.0)
    text = result.openmetrics()
    families = parse_openmetrics(text)
    labels = {
        dict(sample_labels).get("shard")
        for family in families.values()
        for _, sample_labels, _ in family["samples"]
    }
    assert labels == {"0", "1"}
    # The merged (unlabeled) view is still available from the probes.
    merged = parse_openmetrics(render_openmetrics(result.probes))
    assert merged


def test_canonical_report_stays_free_of_shard_probes():
    """Per-shard snapshots ride under resources, which canonical
    (non-profile) reports omit — fixed-seed reports stay bit-identical
    whether or not the exporter is in play."""
    from repro.sim.sharded import ShardedEngine

    config = _config(positions=list(line_positions(12, spacing=1.0)))
    result = ShardedEngine(config, num_shards=2, workers=1).run(until=40.0)
    assert "shard_probes" in (result.resources or {})
    report = result.report()
    assert report.resources is None


# -- scrape endpoint ---------------------------------------------------------


def test_metrics_server_serves_current_text():
    payloads = iter(["# EOF\n", "# TYPE repro_x gauge\nrepro_x 1\n# EOF\n"])
    server = build_metrics_server(lambda: next(payloads), port=0)
    host, port = server.server_address[:2]
    try:
        for expected_first in ("# EOF\n", "# TYPE repro_x gauge"):
            thread = threading.Thread(target=server.handle_request)
            thread.start()
            response = urllib.request.urlopen(
                f"http://{host}:{port}/metrics"
            )
            body = response.read().decode()
            thread.join()
            assert response.status == 200
            assert response.headers["Content-Type"] == CONTENT_TYPE
            assert body.startswith(expected_first)
            parse_openmetrics(body)
    finally:
        server.server_close()


def test_metrics_server_404_off_path():
    server = build_metrics_server(lambda: "# EOF\n", port=0)
    host, port = server.server_address[:2]
    try:
        thread = threading.Thread(target=server.handle_request)
        thread.start()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"http://{host}:{port}/nope")
        thread.join()
        assert excinfo.value.code == 404
    finally:
        server.server_close()
