"""The metric registry: counters, gauges and histograms for one run.

A component that *may* be instrumented normalizes its handle with
:func:`live_registry` (or is handed a
:class:`~repro.obs.probes.ProtocolProbes` built on a live registry) at
construction time, holds ``None`` when telemetry is off, and guards
every instrument update with an ``is not None`` pointer test — the
idiom the node harness also uses for its effect sink.  The hot paths
therefore pay nothing — not a method call, not a dict lookup — unless
a run opted in.

Instruments are deliberately tiny and deterministic:

* :class:`Counter` — a monotonically increasing total, with an optional
  per-key breakdown (e.g. doorway crossings by doorway name);
* :class:`Gauge` — a settable level with a tracked high-water mark
  (e.g. how many doorways a node is currently behind);
* :class:`Histogram` — streaming count/total/min/max summary of an
  observed distribution (e.g. fork grant latency), optionally keyed.

No wall-clock, no randomness: every update is a pure function of the
simulation, so a fixed-seed run produces a bit-identical
:meth:`MetricRegistry.snapshot` — the property the
:class:`~repro.obs.report.RunReport` round-trip tests assert.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Default histogram bucket upper bounds, in virtual time units.  A
#: 1-2.5-5 decade ladder wide enough for both sub-delay latencies
#: (fork grants arrive within one ``nu``) and whole-run durations;
#: ``+Inf`` is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)


def format_bound(bound: float) -> str:
    """Canonical text form of a bucket bound (snapshot key, ``le`` label)."""
    return f"{bound:g}"


class _Instrument:
    """Common naming/registration plumbing."""

    kind = "abstract"

    __slots__ = ("name", "description")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description

    def snapshot(self) -> Dict[str, object]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing count, optionally broken down by key."""

    kind = "counter"

    __slots__ = ("value", "by_key")

    def __init__(self, name: str, description: str = "") -> None:
        super().__init__(name, description)
        self.value = 0
        self.by_key: Dict[str, int] = {}

    def inc(self, amount: int = 1, key: Optional[str] = None) -> None:
        self.value += amount
        if key is not None:
            by_key = self.by_key
            by_key[key] = by_key.get(key, 0) + amount

    def snapshot(self) -> Dict[str, object]:
        data: Dict[str, object] = {"kind": self.kind, "value": self.value}
        if self.by_key:
            data["by_key"] = dict(sorted(self.by_key.items()))
        return data


class Gauge(_Instrument):
    """A level that moves both ways, with per-key values and high-water."""

    kind = "gauge"

    __slots__ = ("value", "high_water", "by_key", "high_water_by_key")

    def __init__(self, name: str, description: str = "") -> None:
        super().__init__(name, description)
        self.value = 0
        self.high_water = 0
        self.by_key: Dict[str, int] = {}
        self.high_water_by_key: Dict[str, int] = {}

    def set(self, value: int, key: Optional[str] = None) -> None:
        if key is None:
            self.value = value
            if value > self.high_water:
                self.high_water = value
            return
        self.by_key[key] = value
        if value > self.high_water_by_key.get(key, 0):
            self.high_water_by_key[key] = value

    def inc(self, amount: int = 1, key: Optional[str] = None) -> None:
        current = self.value if key is None else self.by_key.get(key, 0)
        self.set(current + amount, key=key)

    def dec(self, amount: int = 1, key: Optional[str] = None) -> None:
        current = self.value if key is None else self.by_key.get(key, 0)
        self.set(current - amount, key=key)

    def snapshot(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "kind": self.kind,
            "value": self.value,
            "high_water": self.high_water,
        }
        if self.by_key:
            data["by_key"] = dict(sorted(self.by_key.items()))
            data["high_water_by_key"] = dict(
                sorted(self.high_water_by_key.items())
            )
        return data


class _HistogramCell:
    __slots__ = ("count", "total", "minimum", "maximum", "bucket_counts")

    def __init__(self, n_buckets: int) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        # One slot per finite bound plus the implicit +Inf overflow;
        # counts are per-bucket here and cumulated at snapshot time.
        self.bucket_counts = [0] * (n_buckets + 1)

    def observe(self, value: float, bucket_index: int) -> None:
        self.count += 1
        self.total += value
        self.bucket_counts[bucket_index] += 1
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def snapshot(self, bounds: Sequence[float]) -> Dict[str, object]:
        data: Dict[str, object] = {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }
        if self.count:
            data["mean"] = self.total / self.count
            cumulative = 0
            buckets: Dict[str, int] = {}
            for bound, bucket in zip(bounds, self.bucket_counts):
                cumulative += bucket
                buckets[format_bound(bound)] = cumulative
            buckets["+Inf"] = self.count
            data["buckets"] = buckets
        return data


class Histogram(_Instrument):
    """Streaming summary of observations with cumulative buckets.

    Tracks count/total/min/max/mean plus per-bucket counts over a fixed
    bound ladder (:data:`DEFAULT_BUCKETS` unless overridden at
    creation).  Snapshots expose the buckets *cumulatively* — the form
    OpenMetrics histograms use.
    """

    kind = "histogram"

    __slots__ = ("_all", "_by_key", "bounds")

    def __init__(
        self,
        name: str,
        description: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(name, description)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(
                f"histogram {name!r} bucket bounds must be non-empty and "
                f"strictly increasing: {bounds}"
            )
        self.bounds = bounds
        self._all = _HistogramCell(len(bounds))
        self._by_key: Dict[str, _HistogramCell] = {}

    def observe(self, value: float, key: Optional[str] = None) -> None:
        index = bisect_left(self.bounds, value)
        self._all.observe(value, index)
        if key is not None:
            cell = self._by_key.get(key)
            if cell is None:
                cell = self._by_key[key] = _HistogramCell(len(self.bounds))
            cell.observe(value, index)

    def snapshot(self) -> Dict[str, object]:
        data: Dict[str, object] = {"kind": self.kind}
        data.update(self._all.snapshot(self.bounds))
        if self._by_key:
            data["by_key"] = {
                key: cell.snapshot(self.bounds)
                for key, cell in sorted(self._by_key.items())
            }
        return data


class MetricRegistry:
    """Namespace of instruments for one simulation run.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking
    twice for the same name returns the same instrument, and asking for
    an existing name with a different kind is a configuration error
    (it would silently split one metric into two).
    """

    #: :func:`live_registry` returns ``None`` for disabled registries
    #: so hot paths skip all work.
    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, description: str):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls(name, description)
        elif not isinstance(instrument, cls):
            raise ConfigurationError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, not {cls.kind}"
            )
        return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, description)

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = Histogram(
                name, description, buckets=buckets
            )
        elif not isinstance(instrument, Histogram):
            raise ConfigurationError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, not {Histogram.kind}"
            )
        return instrument

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All instruments as one JSON-ready dict (sorted by name)."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }


class _NullRegistry(MetricRegistry):
    """Shared disabled registry: creates instruments but stays disabled.

    Handed to code that wants an always-valid registry object; hot
    paths should normalize with :func:`live_registry` instead and hold
    ``None``.
    """

    enabled = False


#: Shared sentinel for "no telemetry".
NULL_REGISTRY = _NullRegistry()


def live_registry(registry: Optional[MetricRegistry]) -> Optional[MetricRegistry]:
    """Normalize a registry handle for hot-path guards.

    Returns ``registry`` only if it is a real, enabled registry;
    ``None`` for ``None`` and :data:`NULL_REGISTRY`.
    """
    if registry is None or not registry.enabled:
        return None
    return registry
