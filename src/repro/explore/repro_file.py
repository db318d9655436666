"""Replayable repro files.

A repro file is the complete, self-contained description of one
violating run: the scenario as it ran (JSON dict; a strategy's
perturbations, such as a jittered crash plan, are written into it),
the horizon, the strategy that found it, the monitors that judged it,
the full decision trace, and the violation itself.  Replaying it re-makes every recorded
decision (:class:`~repro.explore.schedule.ReplaySchedule`), so the
engine executes the identical event sequence and the violation
reappears at the same step — bit-identically, which the replay test
asserts on the serialized :class:`~repro.obs.report.RunReport`.

The file is schema-versioned independently of the run-report schema;
loaders reject other versions rather than misread them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro._version import __version__
from repro.errors import ConfigurationError

#: Bump on any breaking change to the repro-file layout.  Version 2:
#: crash timing is scenario data, and traces carry no ``"c"`` decisions.
#: Version 3: scenarios carry no ``strict_safety`` key.
REPRO_SCHEMA_VERSION = 3


def _regroup(rows: List[Tuple[str, float]]) -> Dict[str, List[float]]:
    hunger: Dict[str, List[float]] = {}
    for node, time in rows:
        hunger.setdefault(node, []).append(time)
    return hunger


#: The scenario's timed lists — the perturbations a repro carries:
#: key -> (its value as a flat row list, the value holding given rows).
#: Scripted hunger flattens to ``(node, time)`` rows.  The shrinker runs
#: one ddmin pass per list, in this order; :meth:`ReproFile.size` counts
#: every row.
TIMED_ROWS: Dict[str, Tuple[Callable[[Any], List[Any]],
                            Callable[[List[Any]], Any]]] = {
    "crashes": (list, list),
    "scripted_hunger": (
        lambda hunger: [(node, time)
                        for node, times in sorted(hunger.items())
                        for time in times],
        _regroup,
    ),
    "link_script": (list, list),
}


def timed_rows(scenario: Dict[str, Any], key: str) -> List[Any]:
    """The rows of one :data:`TIMED_ROWS` list (empty when unset)."""
    value = scenario.get(key)
    return TIMED_ROWS[key][0](value) if value else []


@dataclass
class ReproFile:
    """One violating run, ready to replay."""

    scenario: Dict[str, Any]
    until: float
    strategy: Dict[str, Any]
    monitors: List[Dict[str, Any]]
    decisions: List[List[Any]]
    violation: Dict[str, Any]
    schema_version: int = REPRO_SCHEMA_VERSION
    #: Library version that wrote the file (informational; the schema
    #: version gates compatibility).
    version: str = __version__
    #: Optional shrink provenance: decision/scenario sizes before
    #: minimization, filled in by :func:`repro.explore.shrink.shrink_repro`.
    shrunk_from: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "schema_version": self.schema_version,
            "version": self.version,
            "scenario": self.scenario,
            "until": self.until,
            "strategy": self.strategy,
            "monitors": self.monitors,
            "decisions": self.decisions,
            "violation": self.violation,
        }
        if self.shrunk_from is not None:
            data["shrunk_from"] = self.shrunk_from
        return data

    def to_json(self) -> str:
        """Canonical JSON (sorted keys), bit-stable across dumps."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ReproFile":
        schema = data.get("schema_version")
        if schema != REPRO_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported repro-file schema version {schema!r} "
                f"(this library reads version {REPRO_SCHEMA_VERSION})"
            )
        for key in ("scenario", "until", "strategy", "monitors",
                    "decisions", "violation"):
            if key not in data:
                raise ConfigurationError(f"repro file missing {key!r}")
        return cls(
            scenario=data["scenario"],
            until=float(data["until"]),
            strategy=data["strategy"],
            monitors=data["monitors"],
            decisions=[list(d) for d in data["decisions"]],
            violation=data["violation"],
            version=data.get("version", __version__),
            shrunk_from=data.get("shrunk_from"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ReproFile":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"bad repro-file JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("repro file must be a JSON object")
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ReproFile":
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------------
    def size(self) -> int:
        """Shrink metric: decisions + timed scenario rows
        (:data:`TIMED_ROWS`) + the horizon in whole time units.
        Monotone under every shrink move, which the shrink tests
        assert."""
        return (
            len(self.decisions)
            + sum(len(timed_rows(self.scenario, key)) for key in TIMED_ROWS)
            + int(self.until)
        )
