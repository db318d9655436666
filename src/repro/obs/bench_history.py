"""Append-only benchmark history and the regression check on it.

``BENCH_core.json`` is a *snapshot* — each perf-bench run overwrites
it, so the repo only ever records the latest measurement.  This module
keeps the trajectory:

* :func:`append_record` appends one JSON line to ``BENCH_history.jsonl``
  — the bench sections stamped with the library version, the git
  commit, a UTC timestamp and the process peak RSS.  Append-only means
  the file is an audit log: nothing rewrites history.
* :func:`check_latest` judges the newest record that holds an
  ``e2e_ledger`` section by the one rule ``BENCHMARK.json`` declares:
  for every workload x end-to-end metric, the ``change`` median must
  not be worse than the ``parent`` median by more than the metric's
  ``bound``.  Both medians come from interleaved runs of one session
  on one host; a number from another session or host is not a
  baseline, so no record is compared against an earlier record.
  Micro-bench sections are recorded for their trajectory and judged
  by their own asserts, not here.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro._version import __version__
from repro.errors import ConfigurationError

#: Default history file name, at the repo root next to BENCH_core.json.
HISTORY_NAME = "BENCH_history.jsonl"

#: The benchmark declaration ``bench check`` reads, next to the history.
BENCHMARK_NAME = "BENCHMARK.json"


def git_commit(cwd: Union[str, Path, None] = None) -> Optional[str]:
    """The current ``git rev-parse HEAD``, or ``None`` outside a repo."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if output.returncode != 0:
        return None
    commit = output.stdout.strip()
    return commit or None


def append_record(
    history_path: Union[str, Path],
    sections: Mapping[str, Any],
    *,
    version: Optional[str] = None,
    commit: Optional[str] = None,
    timestamp: Optional[str] = None,
    peak_rss_kb: Optional[int] = None,
) -> Dict[str, Any]:
    """Append one bench record as a canonical JSON line; returns it.

    ``sections`` is the ``BENCH_core.json`` payload; provenance fields
    default to the live library version, the repo's HEAD commit and the
    current UTC time.
    """
    if peak_rss_kb is None:
        from repro.runtime.simulation import peak_rss_kb as _peak

        peak_rss_kb = _peak()
    record: Dict[str, Any] = {
        "version": version if version is not None else __version__,
        "git_commit": (
            commit if commit is not None
            else git_commit(Path(history_path).resolve().parent)
        ),
        "timestamp": (
            timestamp if timestamp is not None
            else datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        ),
        "peak_rss_kb": peak_rss_kb,
        "sections": dict(sections),
    }
    path = Path(history_path)
    line = json.dumps(record, sort_keys=True)
    with path.open("a") as handle:
        handle.write(line + "\n")
    return record


def load_history(history_path: Union[str, Path]) -> List[Dict[str, Any]]:
    """All records in append order; raises on a corrupt line.

    The history is an audit log — a line that does not parse means the
    file was hand-edited or truncated mid-append, which the caller
    should hear about rather than silently compare against less data.
    """
    path = Path(history_path)
    if not path.exists():
        return []
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{path}:{lineno}: corrupt history line: {exc}"
            ) from exc
        if not isinstance(record, dict) or "sections" not in record:
            raise ConfigurationError(
                f"{path}:{lineno}: history record must be an object "
                "with a 'sections' field"
            )
        records.append(record)
    return records


# ----------------------------------------------------------------------
# Regression detection
# ----------------------------------------------------------------------


def load_benchmark(history_path: Union[str, Path]) -> Dict[str, Any]:
    """The ``BENCHMARK.json`` next to ``history_path``.

    It declares the workloads and, per end-to-end metric, the direction
    that is ``better`` and the ``bound`` a change may worsen it by.
    """
    path = Path(history_path).resolve().parent / BENCHMARK_NAME
    if not path.exists():
        raise ConfigurationError(
            f"{path}: no benchmark declaration next to {history_path}"
        )
    return json.loads(path.read_text())


@dataclass(frozen=True)
class Regression:
    """One declared metric whose change median is worse than its bound."""

    workload: str
    metric: str
    better: str
    value: float
    parent: float
    bound: float

    def describe(self) -> str:
        verb = "grew" if self.better == "lower" else "fell"
        return (
            f"{self.workload} {self.metric}: {verb} "
            f"{abs(self.value / self.parent - 1):.1%} "
            f"({self.parent:g} -> {self.value:g}, bound {self.bound:.1%})"
        )


@dataclass(frozen=True)
class CheckResult:
    """Outcome of judging the newest ``e2e_ledger`` record."""

    regressions: List[Regression]
    #: ``workload.metric`` leaves the benchmark declares but the
    #: record lacks.
    missing: List[str]
    checked: int
    #: The judged record, or ``None`` when no record holds a ledger.
    record: Optional[Mapping[str, Any]]

    @property
    def clean(self) -> bool:
        return not self.regressions and not self.missing


def _number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_latest(
    history: Sequence[Mapping[str, Any]], benchmark: Mapping[str, Any]
) -> CheckResult:
    """Judge the newest record holding an ``e2e_ledger`` section.

    For every workload x ``end_to_end`` metric of ``benchmark``, the
    record's ``change`` median regresses when it is worse than its
    ``parent`` median (same session, interleaved pairs) by more than
    the metric's ``bound`` in the direction it is ``better``.
    """
    ledger_records = [r for r in history if "e2e_ledger" in r["sections"]]
    if not ledger_records:
        return CheckResult(regressions=[], missing=[], checked=0, record=None)
    record = ledger_records[-1]
    ledger = record["sections"]["e2e_ledger"]
    regressions: List[Regression] = []
    missing: List[str] = []
    checked = 0
    for workload in benchmark["workloads"]:
        entry = ledger.get(workload["name"], {})
        for metric in benchmark["end_to_end"]:
            value = entry.get("change", {}).get(metric["name"])
            parent = entry.get("parent", {}).get(metric["name"])
            if not (_number(value) and _number(parent)):
                missing.append(f"{workload['name']}.{metric['name']}")
                continue
            checked += 1
            if metric["better"] == "lower":
                worse = value > parent * (1 + metric["bound"])
            else:
                worse = value < parent * (1 - metric["bound"])
            if worse:
                regressions.append(Regression(
                    workload=workload["name"],
                    metric=metric["name"],
                    better=metric["better"],
                    value=float(value),
                    parent=float(parent),
                    bound=metric["bound"],
                ))
    return CheckResult(
        regressions=regressions, missing=missing,
        checked=checked, record=record,
    )
