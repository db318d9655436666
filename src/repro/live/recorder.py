"""Schema-versioned event logs of live executions.

A recording is a JSON document: a header (schema tag, runtime kind,
scenario, horizon) plus one **row per dispatched execution**, in stamp
order.  Rows are intentionally flat and small::

    {"t": 12.0031, "k": "recv", "src": 1, "dst": 2, "m": 7,
     "kind": "ForkRequest",
     "emits": [[2, 1, 8, "ForkGrant"]],
     "fx": [["enter", 2]]}

Row kinds: ``hungry`` (scripted/stochastic hunger arrival, with ``eff``
saying whether the node was thinking and alive), ``recv`` (message
delivery), ``drop`` (delivery suppressed by link churn), ``timer``
(wall-clock deadline fire — in practice the eating timer), ``up`` /
``down`` (link churn, one row per link), ``crash``.

The two per-row lists are what make the in-sim replay exact:

* ``emits`` — every message the execution sent, in send order.  A
  message's delivery delay is ``recv_row.t - emitting_row.t``; because
  emits live *inside* their causing row (not as separate rows), the
  socket-mode merge can re-stamp rows without ever separating a send
  from its cause.
* ``fx`` — the effects the execution noted: the externally visible
  state transitions (``hungry`` / ``enter`` / ``exit`` / ``demote`` /
  ``crashed``) and the algorithm's stage marks (Algorithm 1's doorway
  crossings ``ADr`` / ``SDr`` / ``ADf`` / ``SDf`` and ``recolor``).
  They are both the source of the replay's eating-duration script and
  the expected stream the verifier compares the replay's effect log
  against.

Socket runs produce one recording per node process;
:func:`merge_rows` interleaves them into a single global log: a stable
sort by (stamp, origin, per-origin index) followed by an epsilon bump
pass that restores strict monotonicity without reordering anything.
Per-origin order and cross-origin causality (receive stamps exceed
their send stamps, courtesy of the hybrid-clock bump) survive, so the
merged log satisfies the same invariants a bus-mode log does.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, TextIO

from repro.errors import ConfigurationError
from repro.sim.clock import TIME_EPSILON

#: Schema tag written into (and demanded from) every recording.  ``/2``
#: added the stage marks to ``fx``; ``/1`` recordings are refused.
SCHEMA = "repro.live.recording/2"


class LiveRecorder:
    """Accumulates execution rows for one live runtime."""

    def __init__(self, origin: int = 0) -> None:
        #: Identifies this recorder in a multi-process run; message ids
        #: are ``"origin:seq"`` so they stay unique after a merge.
        self.origin = int(origin)
        self.rows: List[Dict[str, Any]] = []
        self._current: Optional[Dict[str, Any]] = None
        self._mid_seq = 0

    # ------------------------------------------------------------------
    # Row lifecycle (driven by WallClockRuntime.execute)
    # ------------------------------------------------------------------
    def begin(self, stamp: float, kind: str, fields: Dict[str, Any]) -> None:
        row: Dict[str, Any] = {"t": stamp, "k": kind}
        row.update(fields)
        self._current = row

    def end(self) -> None:
        row = self._current
        self._current = None
        if row is not None:
            self.rows.append(row)

    # ------------------------------------------------------------------
    # In-row annotations
    # ------------------------------------------------------------------
    def note_send(self, src: int, dst: int, message: Any) -> str:
        """Record one sent message in the current row; returns its id."""
        self._mid_seq += 1
        mid = f"{self.origin}:{self._mid_seq}"
        row = self._current
        if row is not None:
            row.setdefault("emits", []).append(
                [int(src), int(dst), mid, message.kind]
            )
        return mid

    def note_fx(self, time: float, tag: str, node: int) -> None:
        """The effect sink of every hosted harness: one effect, kept in
        the current row."""
        row = self._current
        if row is not None:
            row.setdefault("fx", []).append([tag, node])


# ----------------------------------------------------------------------
# Whole-recording documents
# ----------------------------------------------------------------------
def make_recording(
    runtime_kind: str,
    scenario: Dict[str, Any],
    until: float,
    t_end: float,
    time_scale: float,
    rows: List[Dict[str, Any]],
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the JSON document for one finished live run."""
    doc: Dict[str, Any] = {
        "schema": SCHEMA,
        "runtime": runtime_kind,
        "scenario": scenario,
        "until": float(until),
        "t_end": float(t_end),
        "time_scale": float(time_scale),
        "rows": rows,
    }
    if extra:
        doc.update(extra)
    return doc


def save_recording(recording: Dict[str, Any], stream: TextIO) -> None:
    json.dump(recording, stream, sort_keys=True)
    stream.write("\n")


def load_recording(stream: TextIO) -> Dict[str, Any]:
    recording = json.load(stream)
    schema = recording.get("schema")
    if schema != SCHEMA:
        raise ConfigurationError(
            f"unsupported recording schema {schema!r} (expected {SCHEMA!r})"
        )
    return recording


def merge_rows(
    rows_by_origin: Dict[int, List[Dict[str, Any]]],
) -> List[Dict[str, Any]]:
    """Interleave per-process row logs into one strictly-stamped log."""
    indexed = []
    for origin_rank, origin in enumerate(sorted(rows_by_origin)):
        for idx, row in enumerate(rows_by_origin[origin]):
            indexed.append((float(row["t"]), origin_rank, idx, row))
    indexed.sort(key=lambda entry: entry[:3])
    merged: List[Dict[str, Any]] = []
    last: Optional[float] = None
    for stamp, _, _, row in indexed:
        row = dict(row)
        if last is not None and row["t"] <= last:
            row["t"] = last + TIME_EPSILON
        last = row["t"]
        merged.append(row)
    return merged
