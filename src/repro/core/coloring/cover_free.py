"""Constructive cover-free set families for Linial's color reduction.

The paper invokes Erdős–Frankl–Füredi (Theorem 18): for n > delta there
exist n subsets of ``[5 delta^2 log n]`` such that no subset is covered
by the union of any delta others.  The original proof is probabilistic
and the thesis suggests exhaustive search; we substitute the classical
*polynomial* construction (the one Linial's own paper uses), which is
explicit, fast, and has the same asymptotics:

    For a prime q and degree bound d, associate with every value
    ``v < q^(d+1)`` the polynomial ``f_v`` over GF(q) whose coefficients
    are the base-q digits of v, and the set
    ``F_v = { x*q + f_v(x) : x in GF(q) } ⊆ [q^2]``.

    Distinct polynomials of degree <= d agree on at most d points, so
    ``|F_u ∩ F_v| <= d`` for u != v.  If ``q > d*delta``, the union of
    any delta other sets covers at most ``d*delta < q = |F_v|`` elements
    of ``F_v`` — the cover-free property, with ground set size
    ``q^2 = O((delta * log m / log(delta*log m))^2)``.

Iterating families shrinks a color range m to q^2; the fixpoint is
reached after Theta(log* m) rounds, exactly the paper's round count.
"""

from __future__ import annotations

import functools
import math
from typing import FrozenSet, Iterable, List, Sequence

from repro.errors import ConfigurationError, ProtocolError


def is_prime(value: int) -> bool:
    """Deterministic primality test for the small moduli we need."""
    if value < 2:
        return False
    if value < 4:
        return True
    if value % 2 == 0:
        return False
    factor = 3
    while factor * factor <= value:
        if value % factor == 0:
            return False
        factor += 2
    return True


def next_prime(value: int) -> int:
    """The smallest prime >= value."""
    candidate = max(2, value)
    while not is_prime(candidate):
        candidate += 1
    return candidate


class PolynomialFamily:
    """A (delta-)cover-free family of ``m`` sets over ``[q^2]``.

    Parameters are chosen as the smallest (d, q) pair with ``q`` prime,
    ``q > d * delta`` and ``q^(d+1) >= m``, so every value in ``[0, m)``
    has a distinct degree-<=d polynomial.
    """

    def __init__(self, m: int, delta: int) -> None:
        if m < 1:
            raise ConfigurationError(f"family size must be >= 1, got {m}")
        if delta < 1:
            raise ConfigurationError(f"delta must be >= 1, got {delta}")
        self.m = m
        self.delta = delta
        self.degree, self.q = self._choose_parameters(m, delta)

    @staticmethod
    def _choose_parameters(m: int, delta: int):
        best = None
        for degree in range(1, max(2, int(math.log2(max(m, 2)))) + 2):
            q = next_prime(degree * delta + 1)
            if q ** (degree + 1) >= m:
                size = q * q
                if best is None or size < best[2]:
                    best = (degree, q, size)
        if best is None:  # pragma: no cover - range above always suffices
            raise ConfigurationError(f"no parameters for m={m}, delta={delta}")
        return best[0], best[1]

    @property
    def range_size(self) -> int:
        """Size of the ground set (the new color range): q^2."""
        return self.q * self.q

    # ------------------------------------------------------------------
    def _coefficients(self, value: int) -> Sequence[int]:
        if not 0 <= value < self.q ** (self.degree + 1):
            raise ProtocolError(
                f"value {value} outside family domain "
                f"[0, {self.q ** (self.degree + 1)})"
            )
        digits = []
        v = value
        for _ in range(self.degree + 1):
            digits.append(v % self.q)
            v //= self.q
        return digits

    def _evaluate(self, coefficients: Sequence[int], x: int) -> int:
        result = 0
        for coef in reversed(coefficients):
            result = (result * x + coef) % self.q
        return result

    def set_for(self, value: int) -> FrozenSet[int]:
        """The set ``F_value = { x*q + f_value(x) }``."""
        coefficients = self._coefficients(value)
        return frozenset(
            x * self.q + self._evaluate(coefficients, x) for x in range(self.q)
        )

    def fresh_element(self, value: int, others: Iterable[int]) -> int:
        """The smallest element of ``F_value`` not covered by the others.

        ``others`` are the neighbors' current values (at most ``delta``
        of them).  Existence is guaranteed by the cover-free property;
        exceeding ``delta`` neighbors violates the paper's model and
        raises.
        """
        others = list(others)
        if len(others) > self.delta:
            raise ProtocolError(
                f"{len(others)} concurrent neighbors exceed the family's "
                f"delta bound {self.delta}"
            )
        covered = set()
        for other in others:
            covered |= self.set_for(other)
        own = self.set_for(value)
        available = own - covered
        if not available:  # pragma: no cover - excluded by construction
            raise ProtocolError(
                f"cover-free property violated for value {value}"
            )
        return min(available)


@functools.lru_cache(maxsize=None)
def reduction_schedule(id_space: int, delta: int) -> tuple:
    """The shared per-round family schedule for (id_space, delta).

    Round k maps colors in range ``m_k`` to range ``m_{k+1} = q_k^2``;
    the schedule stops when the range stops shrinking.  Its length is
    the algorithm's round count — Theta(log* id_space), the quantity
    experiment E4 measures.

    All nodes compute the identical schedule (they know n and delta by
    the paper's assumption), so rounds stay aligned without any global
    coordination.
    """
    if id_space < 1:
        raise ConfigurationError(f"id_space must be >= 1, got {id_space}")
    if delta < 1:
        raise ConfigurationError(f"delta must be >= 1, got {delta}")
    schedule: List[PolynomialFamily] = []
    m = id_space
    while True:
        family = PolynomialFamily(m, delta)
        if family.range_size >= m:
            break
        schedule.append(family)
        m = family.range_size
    return tuple(schedule)


def final_color_range(id_space: int, delta: int) -> int:
    """The color range Algorithm 5 ends with (Delta for Lemma 10)."""
    schedule = reduction_schedule(id_space, delta)
    if not schedule:
        return id_space
    return schedule[-1].range_size
