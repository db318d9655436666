"""Scaling-law fits for the growth benchmarks.

The E-series benchmarks compare measured growth against asymptotic
claims ("O(n), not O(n^2)").  Fitting a power law ``y = c * x^k`` by
least squares in log-log space gives a single interpretable number —
the empirical exponent k — which both the printed tables and the
assertions can use instead of ad-hoc ratio thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class PowerLawFit:
    """``y ≈ coefficient * x ** exponent`` with an R² quality score."""

    exponent: float
    coefficient: float
    r_squared: float

    def __str__(self) -> str:
        return (
            f"y = {self.coefficient:.3g} * x^{self.exponent:.2f} "
            f"(R²={self.r_squared:.3f})"
        )


def fit_power_law(
    xs: Sequence[float], ys: Sequence[float]
) -> PowerLawFit:
    """Least-squares power-law fit in log-log space.

    Requires at least two strictly positive (x, y) pairs.
    """
    if len(xs) != len(ys):
        raise ValueError("x and y lengths differ")
    points: list = [
        (math.log(x), math.log(y))
        for x, y in zip(xs, ys)
        if x > 0 and y > 0
    ]
    if len(points) < 2:
        raise ValueError("need at least two positive points")
    n = len(points)
    mean_x = sum(p[0] for p in points) / n
    mean_y = sum(p[1] for p in points) / n
    sxx = sum((p[0] - mean_x) ** 2 for p in points)
    sxy = sum((p[0] - mean_x) * (p[1] - mean_y) for p in points)
    if sxx == 0:
        raise ValueError("all x values identical")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_total = sum((p[1] - mean_y) ** 2 for p in points)
    ss_resid = sum(
        (p[1] - (slope * p[0] + intercept)) ** 2 for p in points
    )
    r_squared = 1.0 if ss_total == 0 else max(0.0, 1 - ss_resid / ss_total)
    return PowerLawFit(
        exponent=slope,
        coefficient=math.exp(intercept),
        r_squared=r_squared,
    )
