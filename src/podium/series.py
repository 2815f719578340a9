"""Exact arithmetic on truncated formal power series in q.

A :class:`Series` holds the coefficients of q^0 .. q^N for a fixed
truncation order N, as plain Python integers, so every computation is
exact at any coefficient size.  Binary operations truncate to the smaller
operand order and never extrapolate past known coefficients.  Values are
immutable; every operation returns a fresh Series.

Multiplication is by Kronecker substitution: both operands are packed
into single Python ints, CPython's Karatsuba multiply does the work, and
the coefficients are read back out, so a product at order 2000 is one big
integer multiply instead of two million interpreted ones.  Inversion runs
the exact recurrence on the first few dozen coefficients and Newton's
iteration above them.  The tests compare every kernel bit for bit with
the plain quadratic algorithms they replace.

Products of powers of (q^b; q^b)_oo never take the dense path
(:func:`eta_quotient`).  Euler's pentagonal sum and Jacobi's sum for the
cube have about sqrt(N/b) terms each, so multiplying by (q^b; q^b)^{1 or
3} is that many slice updates, and dividing by one is the linear
recurrence g_n = c_n - sum_e w_e g_{n-e} over those exponents, the kind
of recurrence the pod paper derives (Andrews, The Theory of Partitions,
ch. 1-2).  A power past the cube comes from J. C. P. Miller's recurrence
in O(N sqrt(N/b)) steps for any exponent and is multiplied in once.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional


@dataclass(frozen=True)
class Mismatch:
    """First index at which two series disagree, with both values."""

    index: int
    left: int
    right: int

    def __str__(self) -> str:
        return f"coefficient {self.index}: {self.left} != {self.right}"


# Series.inverse runs the O(N^2) recurrence up to this many coefficients
# and Newton's iteration past it.  Measured on CPython 3.11: the recurrence
# is faster below about 40 coefficients, and the inverse time is flat
# within noise for any switch between 32 and 48.
NEWTON_BASE = 32


def _product(a, b, size: int) -> list:
    """The first `size` coefficients of the product of the integer
    sequences `a` and `b`, by Kronecker substitution.

    Each coefficient gets a slot of `width` bits, wide enough to hold any
    coefficient of the product with its sign.  Each operand goes into one
    int through base-16 text (with a per-slot bias that makes every slot
    non-negative, taken off again afterwards), CPython multiplies the two
    ints, and the low `size` slots of the result are read back with a bias
    of 2^(width-1) that turns each signed slot into a plain hex field.
    Base-16 conversion is linear in the length and has no digit limit.
    """
    a = a[:size]
    b = b[:size]
    a_bits = max(map(abs, a)).bit_length()
    b_bits = max(map(abs, b)).bit_length()
    if not a_bits or not b_bits:
        return [0] * size
    # |product coefficient| < size * 2^(a_bits + b_bits); two bits more for
    # the sign and the unpacking bias, rounded up to whole hex digits
    digits = (a_bits + b_bits + size.bit_length() + 5) // 4
    width = 4 * digits
    one = "0" * (digits - 1) + "1"  # one slot holding 1
    slot = f"%0{digits}x"

    def pack(cs, bits):
        bias = 1 << bits
        text = (slot * len(cs)) % tuple([c + bias for c in reversed(cs)])
        return int(text, 16) - (int(one * len(cs), 16) << bits)

    half = 1 << (width - 1)
    product = pack(a, a_bits) * pack(b, b_bits) + (int(one * size, 16) << (width - 1))
    text = format(product & ((1 << (width * size)) - 1), f"0{digits * size}x")
    return [int(text[i - digits : i], 16) - half for i in range(len(text), 0, -digits)]


class Series:
    """Integer power series in q, truncated at a fixed order (inclusive).

    Equality compares coefficientwise up to the smaller of the two orders,
    so a series agrees with any of its own truncations.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be int, got {type(c).__name__}")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> int:
        """Coefficient of q^n.  Out of 0..order is an error, never a guess."""
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside 0..{self.order}")
        return self.coeffs[n]

    __getitem__ = coeff

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"Series([{head}{tail}], order={self.order})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    __hash__ = None  # prefix equality is not hash-compatible

    def truncate(self, order: int) -> Series:
        """Drop coefficients above `order` (which must not exceed self.order)."""
        if not 0 <= order <= self.order:
            raise IndexError(f"truncation order {order} outside 0..{self.order}")
        return Series(self.coeffs[: order + 1])

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def __add__(self, other: Series) -> Series:
        if not isinstance(other, Series):
            return NotImplemented
        return Series(x + y for x, y in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: Series) -> Series:
        if not isinstance(other, Series):
            return NotImplemented
        return Series(x - y for x, y in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> Series:
        return Series(-x for x in self.coeffs)

    def __mul__(self, other: Series) -> Series:
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series(_product(self.coeffs, other.coeffs, n + 1))

    def inverse(self) -> Series:
        """Multiplicative inverse, requiring constant term +1 or -1.

        At most NEWTON_BASE coefficients come from the recurrence
        b_0 = a_0, b_m = -a_0 * sum_{k=1..m} a_k b_{m-k}.  Newton's step
        b <- b - b*(a*b - 1) then doubles the number of known coefficients
        until the order is reached.  Both stay inside the integers, so the
        result is the exact inverse.
        """
        a = self.coeffs
        if a[0] not in (1, -1):
            raise ValueError(
                f"series with constant term {a[0]} has no integer inverse"
            )
        sizes = []
        size = len(a)
        while size > NEWTON_BASE:
            sizes.append(size)
            size = (size + 1) // 2
        b = [a[0]] + [0] * (size - 1)
        for m in range(1, size):
            acc = sum(x * y for x, y in zip(a[1 : m + 1], b[m - 1 :: -1]))
            b[m] = -a[0] * acc
        for size in reversed(sizes):
            # a*b - 1 vanishes below q^m, so b*(a*b - 1) changes only
            # coefficients m .. size-1, and only their low part is needed.
            m = len(b)
            error = _product(a, b, size)[m:]
            b.extend(-x for x in _product(b, error, size - m))
        return Series(b)

    def power(self, k: int) -> Series:
        """k-th power by repeated squaring, at most two products per bit of k;
        negative k inverts first."""
        if k < 0:
            return self.inverse().power(-k)
        result = constant(1, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    __pow__ = power

    def substitute(self, k: int, sign: int = 1) -> Series:
        """Map q to sign * q^k: coefficient n moves to k*n with weight sign^n.

        The result keeps the same truncation order, so only source
        coefficients with k*n <= order survive.
        """
        if k < 1:
            raise ValueError(f"substitution stride must be >= 1, got {k}")
        if sign not in (1, -1):
            raise ValueError(f"substitution sign must be +1 or -1, got {sign}")
        n = self.order
        out = [0] * (n + 1)
        s = 1
        for i, c in enumerate(self.coeffs):
            if i * k > n:
                break
            out[i * k] = s * c
            s *= sign
        return Series(out)

    def reduce_mod(self, modulus: int) -> Series:
        """Coefficientwise least non-negative residue mod `modulus` (>= 2)."""
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        return Series(c % modulus for c in self.coeffs)


def constant(c: int, order: int) -> Series:
    """The constant series c + 0*q + ... truncated at `order`."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return Series([c] + [0] * order)


def q_power(k: int, order: int) -> Series:
    """The monomial q^k at the given order (zero series if k > order)."""
    if k < 0:
        raise ValueError(f"exponent must be >= 0, got {k}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    out = [0] * (order + 1)
    if k <= order:
        out[k] = 1
    return Series(out)


@lru_cache(maxsize=256)
def pochhammer(sign: int, a: int, b: int, order: int) -> Series:
    """Truncated infinite product prod_{k>=0} (1 - sign * q^{a+k*b}).

    sign=+1 builds (q^a; q^b)_oo, sign=-1 builds (-q^a; q^b)_oo.  Each
    factor is applied as a sparse in-place update, touching only the
    entries it can reach, so the total work is far below a full product.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if a < 1 or b < 1:
        raise ValueError(f"pochhammer needs a >= 1 and b >= 1, got a={a}, b={b}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    c = [0] * (order + 1)
    c[0] = 1
    step = operator.sub if sign == 1 else operator.add
    for e in range(a, order + 1, b):
        # the right side is built in full from the old values before the
        # slice is replaced, as multiplying by the factor needs
        c[e:] = list(map(step, c[e:], c))
    return Series(c)


# ----------------------------------------------------------------------
# sparse eta kernels
# ----------------------------------------------------------------------
#
# A term list is the sparse polynomial 1 + sum w q^e as (e, w) pairs in
# increasing e, every e in 1..limit.

def _pentagonal(limit: int) -> list:
    """Euler: (q; q)_oo = sum_j (-1)^j q^{j(3j-1)/2} over all integers j."""
    terms = []
    j = 1
    while j * (3 * j - 1) // 2 <= limit:
        sign = -1 if j & 1 else 1
        terms.append((j * (3 * j - 1) // 2, sign))
        if j * (3 * j + 1) // 2 <= limit:
            terms.append((j * (3 * j + 1) // 2, sign))
        j += 1
    return terms


def _jacobi(limit: int) -> list:
    """Jacobi: (q; q)_oo^3 = sum_{n>=0} (-1)^n (2n+1) q^{n(n+1)/2}."""
    terms = []
    n = 1
    while n * (n + 1) // 2 <= limit:
        terms.append((n * (n + 1) // 2, -(2 * n + 1) if n & 1 else 2 * n + 1))
        n += 1
    return terms


def _times(c: list, terms: list) -> list:
    """c times the term list, truncated to len(c): one slice update per term."""
    out = list(c)
    for e, w in terms:
        if w == 1:
            out[e:] = map(operator.add, out[e:], c)
        elif w == -1:
            out[e:] = map(operator.sub, out[e:], c)
        else:
            out[e:] = map(operator.add, out[e:], map(w.__mul__, c))
    return out


def _runs(exponents: list, size: int):
    """The runs start..stop-1 of n in 0..size-1 cut at each exponent, so
    the same terms have e <= n all through a run."""
    bounds = [0, *exponents, size]
    return zip(bounds, bounds[1:])


def _picker(exponents: list):
    """The function g -> (g[-e] for e in exponents), one C-level call.
    While g_n is computed g holds n coefficients, so g[-e] is g_{n-e}."""
    if len(exponents) > 1:
        return operator.itemgetter(*map(operator.neg, exponents))
    return lambda g: [g[-e] for e in exponents]


def _divide(c: list, terms: list) -> list:
    """g with g * (term list) = c, one coefficient at a time:
    g_n = c_n - sum_e w_e g_{n-e}, the recurrence of the paper's kind."""
    exponents = [e for e, _ in terms]
    weights = [w for _, w in terms]
    plus = [e for e, w in terms if w == 1]
    minus = [e for e, w in terms if w == -1]
    signs_only = len(plus) + len(minus) == len(terms)  # Euler's sum
    g = []
    for start, stop in _runs(exponents, len(c)):
        if signs_only:
            plus_at = _picker(plus[: bisect_right(plus, start)])
            minus_at = _picker(minus[: bisect_right(minus, start)])
            for n in range(start, stop):
                g.append(c[n] - sum(plus_at(g)) + sum(minus_at(g)))
        else:
            k = bisect_right(exponents, start)
            pick, ws = _picker(exponents[:k]), weights[:k]
            for n in range(start, stop):
                g.append(c[n] - sum(map(operator.mul, ws, pick(g))))
    return g


def _eta_power(a: int, limit: int) -> list:
    """(q; q)_oo^a up to q^limit, by J. C. P. Miller's recurrence for the
    power of a series f with f_0 = 1:

        n g_n = sum_{k=1..n} ((a+1) k - n) f_k g_{n-k},

    with f Euler's pentagonal sum, so each g_n costs O(sqrt(n)) terms
    whatever the size of a.  The division by n is exact.
    """
    terms = _pentagonal(limit)
    exponents = [e for e, _ in terms]
    weights = [e * w for e, w in terms]
    plus = [e for e, w in terms if w == 1]
    minus = [e for e, w in terms if w == -1]
    g = [1]
    for start, stop in _runs(exponents, limit + 1):
        k = bisect_right(exponents, start)
        pick, ws = _picker(exponents[:k]), weights[:k]
        plus_at = _picker(plus[: bisect_right(plus, start)])
        minus_at = _picker(minus[: bisect_right(minus, start)])
        for n in range(max(start, 1), stop):
            s1 = sum(map(operator.mul, ws, pick(g)))
            s0 = sum(plus_at(g)) - sum(minus_at(g))
            g.append(((a + 1) * s1 - n * s0) // n)
    return g


def eta_quotient(base: Series, etas: dict) -> Series:
    """base * prod_b (q^b; q^b)_oo^{a_b}, for etas = {b: a_b}.

    Exponents +-1 and +-2 multiply by Euler's pentagonal sum or divide by
    it once or twice, +-3 by Jacobi's sum once, each in O(N sqrt(N/b))
    integer additions.  Any larger |a_b| is expanded on its own by
    Miller's recurrence at order N // b and multiplied in once, so no
    loop runs |a_b| times.
    """
    order = base.order
    c = list(base.coeffs)
    # Miller's factors first: on a base of 1 the first one is the result
    for b, a in sorted(etas.items(), key=lambda item: abs(item[1]) <= 3):
        limit = order // b
        if not a or not limit:
            continue
        if abs(a) > 3:
            power = [0] * (order + 1)
            power[:: b] = _eta_power(a, limit)
            unit = c[0] == 1 and not any(c[1:])
            c = power if unit else _product(c, power, order + 1)
            continue
        terms = [(b * e, w) for e, w in (_jacobi if abs(a) == 3 else _pentagonal)(limit)]
        kernel = _times if a > 0 else _divide
        for _ in range(1 if abs(a) == 3 else abs(a)):
            c = kernel(c, terms)
    return Series(c)


def equal_upto(a: Series, b: Series, order: int) -> Optional[Mismatch]:
    """Compare coefficients 0..order; None on agreement, else the first gap."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order > a.order or order > b.order:
        raise IndexError(
            f"comparison order {order} exceeds a series order "
            f"({a.order} vs {b.order})"
        )
    for i in range(order + 1):
        if a.coeffs[i] != b.coeffs[i]:
            return Mismatch(i, a.coeffs[i], b.coeffs[i])
    return None
