"""Declarative mobility: a scenario's movement as data.

A :class:`MobilityPlan` is a list of ``{kind, nodes, params}`` blocks;
each attaches one :data:`KINDS` model, built from its JSON ``params``,
to every node it lists.  The plan is itself the ``node_id -> model |
None`` callable ``ScenarioConfig.mobility_factory`` takes and, unlike a
closure, it serializes, keys a scenario and pickles.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.mobility.base import MobilityModel
from repro.mobility.gauss_markov import GaussMarkov
from repro.mobility.trace import ScriptedMobility, ScriptedMove
from repro.mobility.walk import RandomWalk
from repro.mobility.waypoint import RandomWaypoint
from repro.net.geometry import Point


def _scripted(moves) -> ScriptedMobility:
    """Exact, repeatable movement: ``[[time, x, y, speed], ...]``."""
    return ScriptedMobility([
        ScriptedMove(float(t), Point(float(x), float(y)), float(speed))
        for t, x, y, speed in moves
    ])


#: kind -> builder; a block's params are the builder's keyword arguments.
KINDS = {
    "scripted": _scripted,
    "waypoint": RandomWaypoint,
    "walk": RandomWalk,
    "gauss-markov": GaussMarkov,
}


def _checked(block: Dict[str, Any]) -> Dict[str, Any]:
    """A block in canonical JSON form (tuples become lists), or a
    ConfigurationError naming what is wrong with it."""
    keys = ["kind", "nodes", "params"]
    if not isinstance(block, dict) or sorted(block) != keys:
        raise ConfigurationError(
            f"a mobility block has the keys {keys}: {block!r}"
        )
    kind, params = block["kind"], json.loads(json.dumps(block["params"]))
    if kind not in KINDS:
        raise ConfigurationError(
            f"unknown mobility kind {kind!r}; available: {sorted(KINDS)}"
        )
    takes = inspect.signature(KINDS[kind]).parameters
    unknown = sorted(set(params) - set(takes))
    missing = sorted(name for name, p in takes.items()
                     if p.default is p.empty and name not in params)
    if unknown or missing:
        raise ConfigurationError(
            f"mobility kind {kind!r}: unknown params {unknown}, "
            f"missing params {missing}"
        )
    return {"kind": kind, "nodes": [int(n) for n in block["nodes"]],
            "params": params}


@dataclass(frozen=True)
class MobilityPlan:
    """Frozen, picklable ``{kind, nodes, params}`` blocks, callable as
    ``node_id -> model | None`` (a fresh model on every call)."""

    blocks: Tuple[Dict[str, Any], ...]

    def __post_init__(self) -> None:
        blocks = tuple(_checked(block) for block in self.blocks)
        #: node id -> index of the block that moves it.
        movers: Dict[int, int] = {}
        for index, block in enumerate(blocks):
            for node in block["nodes"]:
                if node in movers:
                    raise ConfigurationError(f"node {node} is in two "
                                             "mobility blocks")
                movers[node] = index
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "movers", movers)

    @classmethod
    def of(cls, kind: str, nodes: Iterable[int], **params: Any):
        """A one-block plan: ``kind`` with ``params`` on every node listed."""
        return cls([{"kind": kind, "nodes": list(nodes), "params": params}])

    def __call__(self, node_id: int) -> Optional[MobilityModel]:
        index = self.movers.get(node_id)
        if index is None:
            return None
        block = self.blocks[index]
        return KINDS[block["kind"]](**block["params"])

    def to_list(self) -> List[Dict[str, Any]]:
        """The JSON form, as fresh dicts."""
        return json.loads(json.dumps(self.blocks))
