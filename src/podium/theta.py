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
"""

from __future__ import annotations

import enum
from typing import Callable

from .series import Series

_SCAN_LIMIT = 10**6


class DivergenceError(ValueError):
    """The exponent failed to grow past the truncation order."""


class Domain(enum.Enum):
    """Summation range of a theta-type sum."""

    ALL_INTEGERS = "Z"
    NON_NEGATIVE = "N"


# Nothing in podium builds a QuadExp, since every theta is identity text;
# the empty class stays because benchmark/tracing.py checks for it, until
# ROADMAP item 1 drops that check
class QuadExp:
    pass


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
    domain: Domain, weight: Callable[[int], int], exponent: Callable[[int], int], order: int
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
    The identity language refuses such an exponent.  A scan that has not
    stopped after 10^6 steps raises DivergenceError.
    """
    if not isinstance(domain, Domain):
        raise TypeError(f"domain must be a Domain, got {type(domain).__name__}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    coeffs = [0] * (order + 1)
    starts = (0, 1, -1, -2) if domain is Domain.ALL_INTEGERS else (0, 1)
    for start in starts:
        _accumulate(coeffs, weight, exponent, order, start, 2 if start >= 0 else -2)
    return Series(coeffs)
