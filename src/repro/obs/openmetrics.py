"""OpenMetrics text exporter for :class:`~repro.obs.registry.MetricRegistry`.

Renders counter/gauge/histogram snapshots as an `OpenMetrics 1.0
<https://openmetrics.io>`_ text exposition — the format Prometheus
scrapes — so a run's telemetry can leave the process: as a file
snapshot (``SimulationResult.openmetrics()``, ``repro run --metrics``,
``replicate(..., metrics_dir=...)``) or over a stdlib HTTP scrape
endpoint (``repro metrics serve``).

Mapping from registry instruments to OpenMetrics families (every
rendered name carries the ``repro_`` prefix and has its dots folded to
underscores, e.g. ``fork.grant_latency`` → ``repro_fork_grant_latency``):

* **Counter** → a ``counter`` family; the unlabeled ``_total`` sample
  is the authoritative total and the optional per-key breakdown rides
  as ``{key="..."}``-labeled samples (keys need not cover the total).
* **Gauge** → a ``gauge`` family for the level plus a sibling
  ``<name>_high_water`` gauge family for the tracked peaks.
* **Histogram** → a ``histogram`` family with cumulative ``_bucket``
  samples over the registry's bound ladder (``le`` labels, ``+Inf``
  last), ``_count`` and ``_sum``, plus sibling ``<name>_min`` /
  ``<name>_max`` gauge families for the streaming extrema.

Validation is strict on the way out: metric and label names must match
the OpenMetrics grammar after sanitization (a probe name that cannot
be folded into a legal identifier raises ``ConfigurationError`` rather
than emitting a family Prometheus would reject), label values are
escaped, and the exposition ends with the mandatory ``# EOF``.
"""

from __future__ import annotations

import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Mapping, Optional

from repro.errors import ConfigurationError
from repro.obs.registry import MetricRegistry

#: Content type a compliant OpenMetrics scraper negotiates.
CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

#: OpenMetrics metric-name grammar (colons are legal but reserved for
#: recording rules, so the exporter never emits them).
METRIC_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Prefix stamped on every exported family.
PREFIX = "repro_"


def metric_name(name: str) -> str:
    """Registry probe name → validated OpenMetrics family name.

    Dots (the registry's namespace separator) and dashes fold to
    underscores; the ``repro_`` prefix is added.  Anything that still
    fails the grammar afterwards is a configuration error — silently
    mangling further would collide families.
    """
    folded = PREFIX + name.replace(".", "_").replace("-", "_")
    if not METRIC_NAME_RE.match(folded):
        raise ConfigurationError(
            f"probe name {name!r} does not render to a valid OpenMetrics "
            f"identifier ({folded!r})"
        )
    return folded


def escape_label_value(value: str) -> str:
    """Backslash-escape a label value per the exposition grammar."""
    return (
        value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")
    )


def format_value(value: object) -> str:
    """Canonical sample value text: ints stay ints, floats round-trip."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    raise ConfigurationError(f"non-numeric sample value {value!r}")


def _labelset(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    for label in labels:
        if not LABEL_NAME_RE.match(label):
            raise ConfigurationError(f"invalid label name {label!r}")
    return (
        "{"
        + ",".join(
            f'{label}="{escape_label_value(str(value))}"'
            for label, value in labels.items()
        )
        + "}"
    )


class _FamilyWriter:
    """Accumulates one family's metadata and samples in emission order."""

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.samples: List[str] = []

    def add(
        self, suffix: str, labels: Mapping[str, str], value: object
    ) -> None:
        self.samples.append(
            f"{self.name}{suffix}{_labelset(labels)} {format_value(value)}"
        )

    def lines(self) -> List[str]:
        lines = [f"# TYPE {self.name} {self.kind}"]
        if self.help_text:
            help_text = self.help_text.replace("\\", r"\\").replace("\n", r"\n")
            lines.append(f"# HELP {self.name} {help_text}")
        lines.extend(self.samples)
        return lines


def help_catalogue() -> Dict[str, str]:
    """Probe name → help text for every catalogued instrument.

    The protocol/mobility descriptions come straight from
    :class:`~repro.obs.probes.ProtocolProbes` (instantiated on a
    throwaway registry so the catalogue cannot drift from the code);
    the watchdog and exploration counters, registered at run time by
    their subsystems, are listed here.
    """
    from repro.obs.probes import ProtocolProbes

    registry = MetricRegistry()
    ProtocolProbes(registry)
    catalogue = {
        name: registry.get(name).description for name in registry.names()
    }
    catalogue.update({
        "watchdog.warnings": "starvation warnings emitted",
        "explore.decisions": "controlled choice-point decisions by kind",
        "explore.monitor_checks": "invariant-monitor checks executed",
        "explore.violations": "invariant violations by monitor",
    })
    return catalogue


def _render_instrument(
    families: Dict[str, _FamilyWriter],
    name: str,
    data: Mapping[str, object],
    labels: Mapping[str, str],
    help_texts: Mapping[str, str],
) -> None:
    kind = data.get("kind")
    base = metric_name(name)
    help_text = help_texts.get(name, "")

    def family(suffix_name: str, om_kind: str, help_suffix: str = "") -> _FamilyWriter:
        writer = families.get(suffix_name)
        if writer is None:
            writer = families[suffix_name] = _FamilyWriter(
                suffix_name, om_kind,
                (help_text + help_suffix) if help_text else "",
            )
        return writer

    if kind == "counter":
        writer = family(base, "counter")
        writer.add("_total", labels, data.get("value", 0))
        for key, value in (data.get("by_key") or {}).items():
            writer.add("_total", {**labels, "key": key}, value)
    elif kind == "gauge":
        writer = family(base, "gauge")
        writer.add("", labels, data.get("value", 0))
        for key, value in (data.get("by_key") or {}).items():
            writer.add("", {**labels, "key": key}, value)
        peaks = family(base + "_high_water", "gauge", " (high water)")
        peaks.add("", labels, data.get("high_water", 0))
        for key, value in (data.get("high_water_by_key") or {}).items():
            peaks.add("", {**labels, "key": key}, value)
    elif kind == "histogram":
        writer = family(base, "histogram")
        _render_histogram_cell(writer, labels, data)
        _render_extrema(families, base, labels, data, help_text)
        for key, cell in (data.get("by_key") or {}).items():
            keyed = {**labels, "key": key}
            _render_histogram_cell(writer, keyed, cell)
            _render_extrema(families, base, keyed, cell, help_text)
    else:
        raise ConfigurationError(
            f"instrument {name!r} has unknown kind {kind!r}"
        )


def _render_histogram_cell(
    writer: _FamilyWriter,
    labels: Mapping[str, str],
    cell: Mapping[str, object],
) -> None:
    count = cell.get("count", 0)
    buckets = cell.get("buckets") or {}
    # Sort bounds numerically: snapshots that round-tripped through a
    # sort_keys JSON dump (RunReport.save) come back string-ordered,
    # where "10" sorts before "2.5".
    for bound in sorted((b for b in buckets if b != "+Inf"), key=float):
        writer.add("_bucket", {**labels, "le": bound}, buckets[bound])
    writer.add("_bucket", {**labels, "le": "+Inf"}, count)
    writer.add("_count", labels, count)
    writer.add("_sum", labels, cell.get("total", 0.0))


def _render_extrema(
    families: Dict[str, _FamilyWriter],
    base: str,
    labels: Mapping[str, str],
    cell: Mapping[str, object],
    help_text: str,
) -> None:
    for stat in ("min", "max"):
        value = cell.get(stat)
        if value is None:
            continue
        name = f"{base}_{stat}"
        writer = families.get(name)
        if writer is None:
            writer = families[name] = _FamilyWriter(
                name, "gauge",
                f"{help_text} ({stat})" if help_text else "",
            )
        writer.add("", labels, value)


def render_openmetrics(
    probes: Mapping[str, Mapping[str, object]],
    *,
    labels: Optional[Mapping[str, str]] = None,
    help_texts: Optional[Mapping[str, str]] = None,
) -> str:
    """Render a snapshot dict as one OpenMetrics text exposition.

    Args:
        probes: a ``MetricRegistry.snapshot()`` dict.
        labels: static labels stamped on every sample (e.g. run id).
        help_texts: probe name → ``# HELP`` text; defaults to the
            :func:`help_catalogue` (unknown probes render without HELP).
    """
    if help_texts is None:
        help_texts = help_catalogue()
    base_labels = dict(labels or {})
    families: Dict[str, _FamilyWriter] = {}
    for name in sorted(probes):
        _render_instrument(
            families, name, probes[name], base_labels, help_texts
        )
    lines: List[str] = []
    for name in sorted(families):
        lines.extend(families[name].lines())
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def openmetrics_from_report(report) -> str:
    """Render a :class:`~repro.obs.report.RunReport`'s probe snapshot."""
    return render_openmetrics(report.probes)


# ----------------------------------------------------------------------
# Scrape endpoint
# ----------------------------------------------------------------------


def build_metrics_server(
    source: Callable[[], str],
    host: str = "127.0.0.1",
    port: int = 9464,
) -> ThreadingHTTPServer:
    """A stdlib HTTP server exposing ``source()`` at ``/metrics``.

    ``source`` is called per scrape, so a file-backed source picks up
    snapshot rewrites from a long-running experiment without restarts.
    The caller owns the serve loop (``serve_forever`` /
    ``handle_request``) and shutdown.
    """

    class _MetricsHandler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
            if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                self.send_error(404, "scrape /metrics")
                return
            try:
                body = source().encode("utf-8")
            except Exception as exc:  # surface as a scrape failure
                self.send_error(500, str(exc))
                return
            self.send_response(200)
            self.send_header("Content-Type", CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args: object) -> None:
            pass  # scrapes are periodic; stderr chatter helps nobody

    return ThreadingHTTPServer((host, port), _MetricsHandler)
