"""Theta-type sums: the one evaluator behind every theta{...} expression.

A theta-type sum here is sum_n w(n) * q^{e(n)} taken over the integers or
the non-negative integers, where e is an integer-valued quadratic and w an
integer weight, both plain callables.  The summation window is found by
scanning outward from n = 0; the scan stops once the exponent has climbed
past the truncation order, and aborts if it never does.

The classical specializations (phi, psi, ...) are identity-language text
in :data:`podium.dsl.NAMED_THETA`.

Also home to the triangular and generalized pentagonal number helpers that
index most of those sums.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Union

from .series import Series

_SCAN_LIMIT = 10**6


class DivergenceError(ValueError):
    """The exponent failed to grow past the truncation order."""


def triangular(k: int) -> int:
    """k-th triangular number k(k+1)/2."""
    if k < 0:
        raise ValueError(f"triangular index must be >= 0, got {k}")
    return k * (k + 1) // 2


def gpent(k: int) -> int:
    """k-th generalized pentagonal number ceil(k/2) * ceil((3k+1)/2) / 2.

    Enumerates the sorted non-negative values of j(3j+1)/2 over integer j:
    0, 1, 2, 5, 7, 12, 15, ...
    """
    if k < 0:
        raise ValueError(f"pentagonal index must be >= 0, got {k}")
    return ((k + 1) // 2) * ((3 * k + 2) // 2) // 2


def ceil_half(n: int) -> int:
    """Mathematical ceiling of n/2, total over all integers."""
    return -((-n) // 2)


class Domain(enum.Enum):
    """Summation range of a theta-type sum."""

    ALL_INTEGERS = "Z"
    NON_NEGATIVE = "N"


@dataclass(frozen=True)
class QuadExp:
    """Exponent e(n) = (a*n^2 + b*n + c) / d, exactly integer-valued.

    Divisibility by d is checked over a window of n at construction, so a
    mis-transcribed exponent fails immediately instead of deep inside a
    summation.  a >= 0 keeps the exponent eventually growing.
    """

    a: int
    b: int
    c: int = 0
    d: int = 1

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"denominator must be >= 1, got {self.d}")
        if self.a < 0:
            raise ValueError(f"quadratic coefficient must be >= 0, got {self.a}")
        for n in range(-100, 101):
            if (self.a * n * n + self.b * n + self.c) % self.d:
                raise ValueError(
                    f"({self.a}*n^2 + {self.b}*n + {self.c}) not divisible "
                    f"by {self.d} at n={n}"
                )

    def __call__(self, n: int) -> int:
        return (self.a * n * n + self.b * n + self.c) // self.d


ExponentFn = Union[QuadExp, Callable[[int], int]]


def _accumulate(coeffs, weight, exponent, order, start, step):
    """Add w(n) into coeffs[e(n)], scanning from `start` in direction `step`.

    Keeps scanning past exponents above the order until the exponent is
    both too large and non-decreasing (i.e. past the vertex of the
    quadratic), so windows that dip are never cut short.
    """
    n = start
    prev = None
    while True:
        v = exponent(n)
        if v > order and prev is not None and v >= prev:
            return
        if abs(n) >= _SCAN_LIMIT:
            raise DivergenceError(
                f"exponent still {v} <= order {order} at |n| = {_SCAN_LIMIT}"
            )
        if v < 0:
            raise ValueError(f"negative exponent {v} at n={n}")
        if v <= order:
            coeffs[v] += weight(n)
        prev = v
        n += step


def theta_series(
    domain: Domain, weight: Callable[[int], int], exponent: ExponentFn, order: int
) -> Series:
    """Build sum_{n in domain} w(n) q^{e(n)} truncated at `order`."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    coeffs = [0] * (order + 1)
    _accumulate(coeffs, weight, exponent, order, 0, +1)
    if domain is Domain.ALL_INTEGERS:
        _accumulate(coeffs, weight, exponent, order, -1, -1)
    return Series(coeffs)
