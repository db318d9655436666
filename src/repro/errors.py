"""Exception hierarchy for the repro library.

All exceptions raised deliberately by the library derive from
:class:`ReproError`, so callers can catch library failures without
catching programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """A problem in the discrete-event engine (bad schedule, reentrancy...)."""


class ConfigurationError(ReproError):
    """An experiment or network configuration is invalid."""


class TopologyError(ReproError):
    """An operation referenced a node or link that does not exist."""


class ProtocolError(ReproError):
    """An algorithm reached a state forbidden by the paper's protocol."""


class SafetyViolation(ReproError):
    """The local mutual exclusion invariant was violated.

    Raised by :class:`repro.metrics.safety.SafetyMonitor` when two
    neighboring nodes are observed eating simultaneously, unless an
    attached :class:`~repro.explore.monitors.MonitorSuite` took its
    verdicts over (its ``exclusion`` monitor then records them).  This
    is the single most important failure mode of the reproduction: it
    should never occur in a correct run.
    """

    def __init__(self, time: float, node_a: int, node_b: int) -> None:
        self.time = time
        self.node_a = node_a
        self.node_b = node_b
        super().__init__(
            f"local mutual exclusion violated at t={time:.6f}: "
            f"neighbors {node_a} and {node_b} are both eating"
        )

    def __reduce__(self):
        # ``args`` holds only the message; rebuild from the fields so
        # the error survives a process boundary (replicate's worker pool).
        return type(self), (self.time, self.node_a, self.node_b)
