"""ScenarioConfig serialization (JSON-friendly dicts).

Lets experiment definitions live in files and travel between the CLI,
notebooks and the benchmark harness.  The codec is derived from
``dataclasses.fields(ScenarioConfig)``: a field JSON carries as it is
goes through verbatim, the others through their :data:`_CODECS` pair,
and a key the data leaves out takes the dataclass default.

``mobility_factory`` is written under the key ``mobility`` as the block
list of a :class:`~repro.mobility.plan.MobilityPlan`; a bare block (the
1.18.0 form) reads as a one-block list.  A config carrying an opaque
callable — an ``algorithm`` entry, or a ``mobility_factory`` that is
not a plan — does not serialize.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from typing import Any, Callable, Dict, Tuple

from repro.errors import ConfigurationError
from repro.mobility.plan import MobilityPlan
from repro.net.geometry import Point
from repro.runtime.simulation import ScenarioConfig
from repro.sim.clock import TimeBounds


def _plan(plan) -> list:
    if not isinstance(plan, MobilityPlan):
        raise ConfigurationError(
            "a callable mobility_factory does not serialize; use a "
            "MobilityPlan"
        )
    return plan.to_list()


def _int_keyed(value: Callable[[Any], Any]) -> Tuple[Callable, Callable]:
    """The codec of a node-id-keyed dict (JSON object keys are strings)."""
    return (lambda d: {str(node): value(v) for node, v in d.items()},
            lambda d: {int(node): value(v) for node, v in d.items()})


def _link_rows(rows):
    return [[float(t), str(op), int(a), int(b), int(mover)]
            for t, op, a, b, mover in rows]


#: field -> (encode, decode) for the fields JSON cannot carry as they are.
_CODECS: Dict[str, Tuple[Callable, Callable]] = {
    "positions": (lambda points: [[p.x, p.y] for p in points],
                  lambda v: [Point(float(x), float(y)) for x, y in v]),
    "bounds": (asdict, lambda v: TimeBounds(**v)),
    "think_range": (list, tuple),
    "crashes": (lambda crashes: [[t, n] for t, n in crashes],
                lambda v: [(float(t), int(n)) for t, n in v]),
    "link_script": (_link_rows, _link_rows),
    "scripted_hunger": _int_keyed(list),
    "scripted_eating": _int_keyed(lambda ds: [float(d) for d in ds]),
    "initial_colors": _int_keyed(int),
    "mobility_factory": (_plan, lambda v: MobilityPlan(
        [v] if isinstance(v, dict) else v)),
}
#: Fields written only when set; every other field is always written.
_OPTIONAL = {"scripted_hunger", "scripted_eating", "link_script",
             "initial_colors", "mobility_factory"}
#: field name -> serialized key, and back.
_KEY = {f.name: f.name for f in fields(ScenarioConfig)}
_KEY["mobility_factory"] = "mobility"
_FIELD = {key: name for name, key in _KEY.items()}


def config_to_dict(config: ScenarioConfig) -> Dict[str, Any]:
    """Serialize a scenario; raises for an opaque callable."""
    if callable(config.algorithm):
        raise ConfigurationError(
            "configs with callable algorithm entries do not serialize"
        )
    data: Dict[str, Any] = {}
    for name, key in _KEY.items():
        value = getattr(config, name)
        if value is None and name in _OPTIONAL:
            continue
        data[key] = _CODECS[name][0](value) if name in _CODECS else value
    return data


def config_from_dict(data: Dict[str, Any]) -> ScenarioConfig:
    """Rebuild a scenario from its serialized form.

    A key that names no field (a misspelling, a removed knob) is an
    error, not silently dropped; so is an unknown key inside ``bounds``
    or a mobility block.
    """
    unknown = sorted(set(data) - set(_FIELD))
    if unknown:
        raise ConfigurationError(
            f"unknown scenario keys {unknown}; known: {sorted(_FIELD)}"
        )
    decoded: Dict[str, Any] = {}
    for key, value in data.items():
        name = _FIELD[key]
        if name in _CODECS and value is not None:
            try:
                value = _CODECS[name][1](value)
            except (TypeError, ValueError, KeyError) as exc:
                raise ConfigurationError(f"bad {key}: {exc}") from exc
        decoded[name] = value
    try:
        return ScenarioConfig(**decoded)
    except TypeError as exc:  # a required field left out
        raise ConfigurationError(f"bad scenario: {exc}") from exc
