"""Controlled schedulers: the decision side of adversarial exploration.

The simulator has two nondeterministic choice points a run consults
as it goes, each surfaced by a hook in the existing planes:

``tie_break(group)``
    Which of several live events sharing ``(time, priority)`` runs
    first (:meth:`repro.sim.engine.Simulator.set_choice_controller`).
    The engine re-consults as the group shrinks, so a controller has
    full permutation authority over every same-instant batch.
``message_delay(src, dst, message)``
    The per-hop delivery latency in ``[min_message_delay, nu]``
    (:attr:`repro.net.channel.Channel.delay_source`).

Everything else a strategy may vary is scenario data, chosen before
the first event: ``perturb(scenario)`` returns the scenario the run
executes (the random strategies jitter its crash plan), and that
scenario is what a repro file stores.

Every decision is appended to a flat typed :class:`DecisionLog` —
``["t", index]`` or ``["d", delay]`` — which is the replayable trace
written into repro files.  Floats survive the JSON round trip exactly
(``repr`` is shortest-round-trip), so a replayed run is bit-identical
to the original.

Strategies:

:class:`RandomStrategy`
    Seeded uniform choices; the workhorse for fuzz campaigns.
:class:`PCTStrategy`
    Probabilistic concurrency testing (Burckhardt et al., ASPLOS
    2010, adapted): random priorities over *actors* with ``depth``
    change points, plus delay quantization so same-instant tie groups
    actually form.  Finds bugs that need one rare ordering held for a
    long window.
:class:`ReplaySchedule`
    Replays a recorded :class:`DecisionLog`, deviating to defaults
    once a queue is exhausted (which shrinking exploits).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Decision-type tags used in the flat trace.
TIE, DELAY = "t", "d"

Decision = List[Any]  # ["t", int] | ["d", float]


class DecisionLog:
    """Flat, typed, JSON-ready record of every choice a run made."""

    def __init__(self) -> None:
        self.decisions: List[Decision] = []

    def record(self, kind: str, value: Any) -> None:
        self.decisions.append([kind, value])

    def counts(self) -> Dict[str, int]:
        out = {TIE: 0, DELAY: 0}
        for kind, _ in self.decisions:
            out[kind] = out.get(kind, 0) + 1
        return out


class ControlledScheduler:
    """Base class: records decisions and enforces the delay bounds.

    Subclasses override ``_tie_break``/``_message_delay`` (and
    ``perturb``); the public methods wrap them with recording and
    clamping so every strategy produces a legal, replayable trace.
    ``bind`` is called by the runner once the scenario's timing
    parameters are known, before ``perturb``.
    """

    kind = "base"

    def __init__(self) -> None:
        self.log = DecisionLog()
        self._delay_floor = 0.0
        self._nu = 1.0

    def bind(self, min_message_delay: float, nu: float) -> None:
        self._delay_floor = float(min_message_delay)
        self._nu = float(nu)

    def describe(self) -> Dict[str, Any]:
        """JSON descriptor for repro files; see :func:`build_strategy`."""
        return {"kind": self.kind}

    # -- engine hook ---------------------------------------------------
    def tie_break(self, group: Sequence[Any]) -> int:
        index = self._tie_break(group)
        self.log.record(TIE, index)
        return index

    # -- channel hook --------------------------------------------------
    def message_delay(self, src: int, dst: int, message: Any) -> float:
        delay = self._message_delay(src, dst, message)
        delay = min(max(float(delay), self._delay_floor), self._nu)
        self.log.record(DELAY, delay)
        return delay

    # -- scenario ------------------------------------------------------
    def perturb(self, scenario: Dict[str, Any]) -> Dict[str, Any]:
        """The scenario this run executes; by default the one given."""
        return scenario

    # -- strategy body -------------------------------------------------
    def _tie_break(self, group: Sequence[Any]) -> int:
        return 0

    def _message_delay(self, src: int, dst: int, message: Any) -> float:
        return self._nu

    def _jitter_crashes(self, scenario: Dict[str, Any],
                        rng: random.Random) -> Dict[str, Any]:
        """Move every planned crash by a uniform +/-5*nu (not before 0),
        so campaigns also explore crash/message interleavings the
        scenario author did not pin down."""
        crashes = scenario.get("crashes")
        if not crashes:
            return scenario
        spread = 5.0 * self._nu
        return {**scenario, "crashes": [
            [max(0.0, float(time) + rng.uniform(-spread, spread)), node]
            for time, node in crashes
        ]}


class RandomStrategy(ControlledScheduler):
    """Seeded uniform randomness at every choice point, and a jittered
    crash plan."""

    kind = "random"

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = int(seed)
        self._rng = random.Random(self.seed)

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "seed": self.seed}

    def _tie_break(self, group: Sequence[Any]) -> int:
        return self._rng.randrange(len(group))

    def _message_delay(self, src: int, dst: int, message: Any) -> float:
        span = self._nu - self._delay_floor
        return self._delay_floor + span * self._rng.random()

    def perturb(self, scenario: Dict[str, Any]) -> Dict[str, Any]:
        return self._jitter_crashes(scenario, self._rng)


class PCTStrategy(ControlledScheduler):
    """Priority-based exploration in the PCT style.

    Each *actor* (callback qualname plus up to two integer arguments,
    which in this codebase identifies a node or directed link) gets a
    lazily assigned random priority; tie groups are won by the
    highest-priority actor.  ``depth - 1`` change points, drawn over
    the expected number of tie decisions, demote the currently
    top-priority actor, which is what lets PCT hold a rare ordering
    exactly long enough to matter.

    Delays are quantized to three levels so messages actually collide
    at the same instant — with continuous delays, tie groups would
    almost never form and the priorities would have nothing to decide.
    """

    kind = "pct"

    def __init__(self, seed: int, depth: int = 3,
                 expected_decisions: int = 500) -> None:
        super().__init__()
        if depth < 1:
            raise ConfigurationError("PCT depth must be >= 1")
        self.seed = int(seed)
        self.depth = int(depth)
        self.expected_decisions = int(expected_decisions)
        self._rng = random.Random(self.seed)
        self._priorities: Dict[Tuple[Any, ...], float] = {}
        self._decision_index = 0
        self._change_points = sorted(
            self._rng.randrange(max(1, self.expected_decisions))
            for _ in range(self.depth - 1)
        )

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "depth": self.depth,
            "expected_decisions": self.expected_decisions,
        }

    @staticmethod
    def _actor(event: Any) -> Tuple[Any, ...]:
        key: List[Any] = [getattr(event.callback, "__qualname__",
                                  repr(event.callback))]
        for arg in event.args[:2]:
            if isinstance(arg, int):
                key.append(arg)
        return tuple(key)

    def _priority(self, actor: Tuple[Any, ...]) -> float:
        if actor not in self._priorities:
            self._priorities[actor] = self._rng.random()
        return self._priorities[actor]

    def _tie_break(self, group: Sequence[Any]) -> int:
        while (self._change_points
               and self._decision_index >= self._change_points[0]):
            self._change_points.pop(0)
            if self._priorities:
                top = max(self._priorities, key=self._priorities.get)
                self._priorities[top] = -self._rng.random()
        self._decision_index += 1
        best, best_priority = 0, float("-inf")
        for index, event in enumerate(group):
            priority = self._priority(self._actor(event))
            if priority > best_priority:
                best, best_priority = index, priority
        return best

    def _message_delay(self, src: int, dst: int, message: Any) -> float:
        span = self._nu - self._delay_floor
        level = self._rng.randrange(3)
        return self._delay_floor + span * level / 2.0

    def perturb(self, scenario: Dict[str, Any]) -> Dict[str, Any]:
        return self._jitter_crashes(scenario, self._rng)


class ReplaySchedule(ControlledScheduler):
    """Replays a recorded decision trace.

    The flat trace is split into one queue per decision type, so the
    replay stays aligned even when shrinking removed decisions of one
    type.  An exhausted queue falls back to the deterministic defaults
    (tie 0, delay ``nu``).  The scenario runs as given: a perturbed
    run's repro file already stores the scenario that ran.
    """

    kind = "replay"

    def __init__(self, decisions: Sequence[Sequence[Any]]) -> None:
        super().__init__()
        self._queues: Dict[str, List[Any]] = {TIE: [], DELAY: []}
        for kind, value in decisions:
            if kind not in self._queues:
                raise ConfigurationError(
                    f"unknown decision kind {kind!r} in trace")
            self._queues[kind].append(value)
        self._cursor = {TIE: 0, DELAY: 0}

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind}

    def _next(self, kind: str) -> Optional[Any]:
        queue = self._queues[kind]
        cursor = self._cursor[kind]
        if cursor >= len(queue):
            return None
        self._cursor[kind] = cursor + 1
        return queue[cursor]

    def _tie_break(self, group: Sequence[Any]) -> int:
        value = self._next(TIE)
        if value is None:
            return 0
        return min(int(value), len(group) - 1)

    def _message_delay(self, src: int, dst: int, message: Any) -> float:
        value = self._next(DELAY)
        return self._nu if value is None else float(value)


def build_strategy(descriptor: Dict[str, Any]) -> ControlledScheduler:
    """Rebuild a strategy from its ``describe()`` dict (repro files)."""
    kind = descriptor.get("kind")
    if kind == "random":
        return RandomStrategy(seed=descriptor["seed"])
    if kind == "pct":
        return PCTStrategy(
            seed=descriptor["seed"],
            depth=descriptor.get("depth", 3),
            expected_decisions=descriptor.get("expected_decisions", 500),
        )
    if kind == "replay":
        return ReplaySchedule(descriptor.get("decisions", ()))
    raise ConfigurationError(f"unknown strategy kind {kind!r}")
