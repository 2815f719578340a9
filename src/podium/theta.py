"""Theta-type sums: the one evaluator behind every theta{...} expression.

A theta-type sum here is sum_n w(n) * q^{e(n)} taken over the integers or
the non-negative integers, where e is an integer-valued quadratic and w an
integer weight, both plain callables.  The summation window is found by
scanning each parity class n = 2m + r outward from n = 0 or 1 (and from
n = -1 or -2 over the integers); a scan stops at the first exponent
above the truncation order that is not below the one before on its
class, and aborts if none comes within 10^6 steps.

The classical specializations (phi, psi, ...) are identity-language text
in :data:`podium.dsl.NAMED_THETA`.

Also home to the triangular and generalized pentagonal number helpers,
kept as public utilities; the sums themselves write their exponents as
text and call neither.
"""

from __future__ import annotations

import enum
from typing import Callable, Union

from ._value import Value
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


class QuadExp(Value):
    """Exponent e(n) = (a*n^2 + b*n + c) / d, exactly integer-valued.

    Divisibility by d is checked at construction, so a mis-transcribed
    exponent fails at once.  a >= 0 keeps the exponent eventually growing.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int = 0, d: int = 1):
        super().__init__(a, b, c, d)
        if self.d < 1:
            raise ValueError(f"denominator must be >= 1, got {self.d}")
        if self.a < 0:
            raise ValueError(f"quadratic coefficient must be >= 0, got {self.a}")
        # d divides f(n) = a*n^2 + b*n + c at every n if it does at n = 0, 1
        # and 2, since f(n) = f(0) + n (f(1) - f(0)) + C(n, 2) (f(2) - 2 f(1) + f(0))
        for n in (0, 1, 2):
            if (self.a * n * n + self.b * n + self.c) % self.d:
                raise ValueError(
                    f"({self.a}*n^2 + {self.b}*n + {self.c}) not divisible "
                    f"by {self.d} at n={n}"
                )

    def __call__(self, n: int) -> int:
        return (self.a * n * n + self.b * n + self.c) // self.d


ExponentFn = Union[QuadExp, Callable[[int], int]]


def _accumulate(coeffs, weight, exponent, order, start, step):
    """Add w(n) into coeffs[e(n)] for n = start, start + step, ...

    Keeps scanning past exponents above the order until the exponent is
    both too large and non-decreasing (i.e. past the vertex of the
    quadratic), so windows that dip are never cut short.  Raises
    DivergenceError if it has not stopped after _SCAN_LIMIT steps, that is
    at the _SCAN_LIMIT + 1-th exponent evaluation.
    """
    n = start
    last = start + step * _SCAN_LIMIT
    prev = None
    while True:
        v = exponent(n)
        if v > order and prev is not None and v >= prev:
            return
        if n == last:
            raise DivergenceError(
                f"exponent {v} at n = {n}: no end past order {order} in {_SCAN_LIMIT} steps"
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
    """Build sum_{n in domain} w(n) q^{e(n)} truncated at `order`.

    Each parity class is scanned on its own: n = 0, 2, 4, ... and n = 1,
    3, 5, ..., and over the integers n = -1, -3, ... and n = -2, -4, ...
    too.  A scan stops at the first exponent above the order that is not
    below the one before on its class, so a callable exponent must never
    fall again on its class once it has passed the order.  A quadratic
    in n that does not fall without bound is such a quadratic in m on
    each class n = 2m + r, and so is an exponent like 1000*(-1)^n + 1000
    + n, which one scan over all n would cut short.  One that does fall
    is summed wrongly, with no error: e(n) = 100n - n^2 over N at order 10
    gives 1 + 0q + ... + 0q^10, although e(100) = 0 and e(n) < 0 beyond.
    QuadExp refuses a falling quadratic, and the identity language
    refuses such an exponent.  A scan that has not stopped after 10^6
    steps raises DivergenceError.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    coeffs = [0] * (order + 1)
    starts = (0, 1, -1, -2) if domain is Domain.ALL_INTEGERS else (0, 1)
    for start in starts:
        _accumulate(coeffs, weight, exponent, order, start, 2 if start >= 0 else -2)
    return Series(coeffs)
