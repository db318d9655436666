"""Structured, schema-versioned run reports.

A :class:`RunReport` is the single machine-readable artifact of one
simulation run: the response-time summary (the paper's Definition 1
metric), per-node lifetime counters, per-kind channel counters, engine
statistics, the probe-metric snapshot, starvation and failure-locality
results, and watchdog warnings.  It round-trips through JSON
(``to_json``/``from_json``), and fixed-seed runs produce bit-identical
reports — everything in it derives from virtual time and deterministic
counters, never wall-clock (the optional engine profile, which *is*
wall-clock, rides in a separate ``profile`` field that fixed-seed
comparisons ignore by being absent unless profiling was enabled).

``diff`` flattens two reports and returns the leaves that changed,
which is how the CLI's ``report`` subcommand and the regression
tooling compare runs across code versions, backends and sweeps.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Tuple, Union

from repro._version import __version__
from repro.errors import ConfigurationError

#: Bump on any breaking change to the report layout.  Loaders accept
#: only this major version; the golden-file test pins it.
SCHEMA_VERSION = 1


@dataclass
class RunReport:
    """Everything one finished run exposes, JSON-ready."""

    schema_version: int = SCHEMA_VERSION
    #: Library version that produced the report (``repro.__version__``);
    #: defaults to the running library's own version so hand-built
    #: reports are stamped too.  Loading tolerates any value — the
    #: schema version, not the package version, gates compatibility.
    version: str = __version__
    #: Declarative scenario (``config_to_dict`` output) or a minimal
    #: ``{"algorithm": ...}`` stub when the scenario does not serialize.
    config: Dict[str, Any] = field(default_factory=dict)
    duration: float = 0.0
    #: Response-time summary: count/mean/median/p95/max/min/stdev, plus
    #: cs_entries and the raw sample count after demotions.
    response: Dict[str, Any] = field(default_factory=dict)
    #: Aggregated node counters (hungry/cs_entries/completions/
    #: demotions) with a per-node breakdown.
    nodes: Dict[str, Any] = field(default_factory=dict)
    #: ``ChannelStats.snapshot()``: totals and per-kind breakdowns.
    channel: Dict[str, Any] = field(default_factory=dict)
    #: Engine statistics: executed_events, pending_events, now (the
    #: wall-clock and scheduler-queue counters are stripped so reports
    #: stay deterministic and independent of the queue structure; queue
    #: ops surface through the ``engine.sched_ops`` probe instead).
    engine: Dict[str, Any] = field(default_factory=dict)
    #: ``MetricRegistry.snapshot()`` — empty when telemetry was off.
    probes: Dict[str, Any] = field(default_factory=dict)
    starved: List[int] = field(default_factory=list)
    #: Failure-locality summary when the run had a crash plan.
    locality: Optional[Dict[str, Any]] = None
    #: Structured starvation-watchdog warnings (empty when off/silent).
    warnings: List[Dict[str, Any]] = field(default_factory=list)
    #: Wall-clock engine profile; only present when profiling was on.
    profile: Optional[Dict[str, Any]] = None
    #: Host-resource footprint (wall_time_s, events_per_sec,
    #: peak_rss_kb); populated, like ``profile``, only when profiling
    #: was on — fixed-seed report comparisons see None.
    resources: Optional[Dict[str, Any]] = None
    #: Exploration summary (strategy, decision counts, violation) when
    #: the run was driven by :mod:`repro.explore`; ``None`` otherwise.
    exploration: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Canonical JSON: sorted keys, so equal reports are equal text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunReport":
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported RunReport schema version {version!r} "
                f"(this library reads version {SCHEMA_VERSION})"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown RunReport fields: {sorted(unknown)}"
            )
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"bad RunReport JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("RunReport JSON must be an object")
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunReport":
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def diff(self, other: "RunReport") -> Dict[str, Tuple[Any, Any]]:
        """Changed leaves between two reports.

        Returns ``{dotted.path: (ours, theirs)}`` for every scalar leaf
        present in either report whose value differs; a path missing on
        one side shows as ``None`` there.
        """
        mine = _flatten(self.to_dict())
        theirs = _flatten(other.to_dict())
        changed: Dict[str, Tuple[Any, Any]] = {}
        for key in sorted(set(mine) | set(theirs)):
            a, b = mine.get(key), theirs.get(key)
            if a != b:
                changed[key] = (a, b)
        return changed

    def summary_lines(self) -> List[str]:
        """Human-oriented one-liners for CLI pretty-printing."""
        lines = [
            f"schema v{self.schema_version}, "
            f"algorithm {self.config.get('algorithm', '?')}, "
            f"duration {self.duration:g} tu",
            f"cs entries: {self.response.get('cs_entries', 0)}",
        ]
        mean = self.response.get("mean")
        p95 = self.response.get("p95")
        if mean is not None:
            line = f"response: mean {mean:.3f}"
            if p95 is not None:
                line += f", p95 {p95:.3f}"
            lines.append(line)
        lines.append(
            f"messages: {self.channel.get('sent', 0)} sent, "
            f"{self.channel.get('delivered', 0)} delivered, "
            f"{self.channel.get('dropped_link_down', 0)} dropped"
        )
        lines.append(
            f"engine: {self.engine.get('executed_events', 0)} events, "
            f"{self.engine.get('pending_events', 0)} pending at end"
        )
        lines.append(
            "starved: "
            + (",".join(map(str, self.starved)) if self.starved else "none")
        )
        if self.locality is not None:
            lines.append(
                f"failure locality: radius "
                f"{self.locality.get('starvation_radius')}"
            )
        if self.warnings:
            lines.append(f"watchdog warnings: {len(self.warnings)}")
        if self.probes:
            lines.append(f"probe metrics: {len(self.probes)}")
        if self.exploration is not None:
            violation = self.exploration.get("violation")
            if violation:
                lines.append(
                    f"exploration: VIOLATION of {violation.get('monitor')} "
                    f"at step {violation.get('step')} "
                    f"(t={violation.get('time', 0.0):g})"
                )
            else:
                lines.append(
                    "exploration: clean under strategy "
                    f"{self.exploration.get('strategy', {}).get('kind', '?')}"
                )
        return lines


def _flatten(data: Any, prefix: str = "") -> Dict[str, Any]:
    """Flatten nested dicts/lists into dotted-path scalar leaves."""
    leaves: Dict[str, Any] = {}
    if isinstance(data, dict):
        if not data:
            leaves[prefix or "."] = {}
        for key, value in data.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            leaves.update(_flatten(value, path))
    elif isinstance(data, (list, tuple)):
        if not data:
            leaves[prefix or "."] = []
        for index, value in enumerate(data):
            path = f"{prefix}[{index}]"
            leaves.update(_flatten(value, path))
    else:
        leaves[prefix or "."] = data
    return leaves
