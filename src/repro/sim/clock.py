"""Timing model of the paper (Section 3.1).

The system is asynchronous, but the analysis assumes two upper bounds:

* ``nu``  -- the total time to prepare, transmit and receive one message;
* ``tau`` -- the maximum time any node spends in its critical section.

Nodes never read these bounds (the paper stresses they are *unknown* to
the algorithms and used only in the analysis); the simulator uses them to
draw message delays and eating durations, and the benchmark harness uses
them as the unit in which response times are reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Smallest representable gap between two causally ordered times.  Used by
#: the FIFO channel to keep deliveries on one link strictly ordered.
TIME_EPSILON = 1e-9


@dataclass(frozen=True)
class TimeBounds:
    """The (nu, tau) bounds of the paper's timing model.

    Attributes:
        nu: upper bound on one message's end-to-end delay.
        tau: upper bound on the time spent eating (in the CS).
        min_delay_fraction: messages are drawn uniformly from
            ``[min_delay_fraction * nu, nu]``; set to 1.0 for a fully
            deterministic network.
    """

    nu: float = 1.0
    tau: float = 1.0
    min_delay_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.nu <= 0:
            raise ConfigurationError(f"nu must be positive, got {self.nu}")
        if self.tau <= 0:
            raise ConfigurationError(f"tau must be positive, got {self.tau}")
        if not 0.0 < self.min_delay_fraction <= 1.0:
            raise ConfigurationError(
                "min_delay_fraction must be in (0, 1], got "
                f"{self.min_delay_fraction}"
            )

    @property
    def min_message_delay(self) -> float:
        """Lower edge of the message-delay distribution."""
        return self.nu * self.min_delay_fraction

    def draw_eating_time(self, rng) -> float:
        """Draw one eating duration in ``(0, tau]``.

        The distribution is uniform over the upper half of the range so
        that eating times are substantial relative to ``tau`` (keeping
        response-time measurements comparable across runs) while still
        exercising variability.
        """
        return rng.uniform(0.5 * self.tau, self.tau)
