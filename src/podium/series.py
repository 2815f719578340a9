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

A single product (+-q^a; q^b)_oo (:func:`pochhammer`) is Euler's sum
(x; q)_oo = sum_n (-1)^n q^{n(n-1)/2} x^n / (q; q)_n at q -> q^b,
x = +-q^a (Andrews, The Theory of Partitions, Thm 2.1 and Cor. 2.2).
About sqrt(2N/b) of its terms reach order N.  Summed in Horner's form,
each term is one division by 1 - q^m, a running sum done in a few slice
operations, so the build is O(N sqrt(N/b)) instead of O(N^2/b) for one
pass per factor.

Products of powers of (q^b; q^b)_oo never take the dense path
(:func:`eta_quotient`).  A theta row is a Jacobi triple product
f(+-q^u, +-q^v) that is an eta quotient -- Euler's pentagonal sum,
phi(+-q), psi(+-q) -- stored as data: 1 + k (sum q^plus - sum q^minus),
its scale k and two sorted exponent lists.  Each has about sqrt(N/b)
exponents at stride b, so multiplying by one is that many slice updates,
and dividing by one is the linear recurrence
g_n = c_n - k (sum_plus g_{n-e} - sum_minus g_{n-e}), the kind of
recurrence the pod paper derives (Andrews, The Theory of Partitions,
ch. 1-2).  A planner writes each vector {b: a_b} once as one ordered
list of a few such passes: pod's generating function is 1/psi(-q), one
division.  An exponent the rows leave past +-3 is a Miller pass,
J. C. P. Miller's recurrence in O(N sqrt(N/b)) steps for any exponent,
multiplied in once.  The list puts Miller passes first, then row
multiplies, then row divides, so on a base of 1 the first pass meets a
constant: a Miller pass's product is then a scale, and a row multiply
on a base of few terms goes term by term, in O(terms sqrt(N/b)).

What a plan expands on a base of 1 is kept in one memo, one entry per
plan at the highest order expanded, and bounded by its coefficients'
bytes (ETA_MEMO_BYTES).  Each pass finds coefficient n from coefficients
0..n, so an expansion at order N, truncated, is the expansion at any
lower order, bit for bit.  A plan starts from its longest prefix stored
at its order or above, so gf(cubic), Euler's row divided out at strides
1 and 2, runs one division after gf(p) has run the first, and gf(pod) at
order 300 runs no pass after gf(pod) at 1000.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_right
from collections import OrderedDict
from functools import lru_cache, partial
from itertools import accumulate, compress
from typing import Iterable, Iterator, Optional

from ._value import Value


def _int_text(value: int) -> str:
    """str(value), or its size when str refuses an int past the digit limit."""
    try:
        return str(value)
    except ValueError:
        return f"<{value.bit_length()}-bit integer>"


class Mismatch(Value):
    """First index at which two series disagree, with both values."""

    __slots__ = ("index", "left", "right")

    def __str__(self) -> str:
        return f"coefficient {self.index}: {_int_text(self.left)} != {_int_text(self.right)}"

    def __repr__(self) -> str:
        left, right = _int_text(self.left), _int_text(self.right)
        return f"Mismatch(index={self.index}, left={left}, right={right})"


# Series.inverse runs the O(N^2) recurrence up to this many coefficients
# and Newton's iteration past it.  Measured on CPython 3.11: the recurrence
# is faster below about 40 coefficients, and the inverse time is flat
# within noise for any switch between 32 and 48.
NEWTON_BASE = 32


# _times multiplies a base term by term when fewer than one coefficient in
# SPARSE_BASE is nonzero, and by full-length slice updates otherwise.
# Measured per call on CPython 3.11 (2-core host), both branches on the
# Euler, phi(-q) and psi(-q) rows at orders 300, 1000 and 8000: on random
# bases of 40-bit terms, term by term takes 0.2-0.3 of the slice time at
# density 0.1, 0.6 at 0.3 and 0.8 at 0.4, and they cross near 0.5; on
# the bundled suite's own bases they cross between density 0.38 (ratio
# 0.94) and 0.45 (1.15).  One in 3 is under both crossings.
SPARSE_BASE = 3


# Series.power refuses a k-th power whose work, bits(k) products of N + 1
# coefficients of B bits, passes this many bits; B bounds the result's
# coefficient bits and is read before the first product (see
# _check_power_work).  The slowest powers just under it, such as a cube
# of 54,000 16-bit coefficients, took about 2 s on CPython 3.11 (2-core
# Xeon); a bound past it, such as (1 - q)^(10^60) at order 200, is
# refused at once instead of running for hours.
MAX_POWER_WORK = 10**7


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

    A product by a constant, an operand whose coefficients past q^0 are
    all zero (the zero series too), is a scale: the other operand times
    that constant, padded to `size`, in O(size) and with no packing.
    This is the one place that rule lives: power's start from 1, 2 / x
    and a Miller pass on a base of 1 take it here.
    """
    a = a[:size]
    b = b[:size]
    for x, y in ((a, b), (b, a)):
        if not any(x[1:]):
            return [x[0] * c for c in y] + [0] * (size - len(y))
    a_bits = max(map(abs, a)).bit_length()
    b_bits = max(map(abs, b)).bit_length()
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


class Series(Value):
    """Integer power series in q, truncated at a fixed order (inclusive).

    A value of the base: it refuses assignment and deletion, copies and
    pickles as its coefficients, and equals and hashes by them, so two
    series are equal only at the same order.  It checks them when it is
    built.  To compare up to an order, use equal_upto, or truncate both.
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
        head = ", ".join(_int_text(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"Series([{head}{tail}], order={self.order})"

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
        negative k inverts first.

        A zero constant term is shifted out first: (q^v h)^k is q^(vk) h^k,
        the zero series once vk passes the order.  Before the first
        product the work is bounded (see MAX_POWER_WORK), and a power past
        the bound raises ValueError.
        """
        if k < 0:
            return self.inverse().power(-k)
        n = self.order
        if not k:
            return constant(1, n)
        v = next((i for i, c in enumerate(self.coeffs) if c), n + 1)
        if v * k > n:
            return Series([0] * (n + 1))
        base = Series(self.coeffs[v : v + n - v * k + 1]) if v else self
        _check_power_work(base.coeffs, k)
        result = constant(1, base.order)
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return Series((0,) * (n - result.order) + result.coeffs) if v else result

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
        out[::k] = self.coeffs[: n // k + 1]
        if sign == -1:
            out[k :: 2 * k] = [-c for c in out[k :: 2 * k]]
        return Series(out)

    def reduce_mod(self, modulus: int) -> Series:
        """Coefficientwise least non-negative residue mod `modulus` (>= 2)."""
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        return Series(c % modulus for c in self.coeffs)


def _check_power_work(cs, k: int) -> None:
    """Refuse the k-th power of the series `cs` (constant term not 0, k >= 1)
    when bits(k) * (N + 1) * B passes MAX_POWER_WORK, B bounding the bits
    of every coefficient of the result.  With S = sum |c_i| over i >= 1,
    B is the smaller of k log2(|c0| + S), since (|c0| + S)^k bounds every
    coefficient, and k log2|c0| + m log2(max(1, kS/|c0|)) + log2(m + 1):
    writing the series as c0 (1 + g), g^i starts at q^(iv), v the index of
    g's first nonzero coefficient, so only the m = N // v factors i <= m
    reach order N, and coefficient j of (1 + g)^k is at most
    sum_{i <= m} C(k, i) (S/|c0|)^i.
    """
    c0 = abs(cs[0])
    s = sum(map(abs, cs[1:]))
    n = len(cs) - 1
    # k enters a float product clamped: past the ceiling a term k log2(x)
    # refuses alone when x >= 2, and it is 0 when x = 1
    clamped = min(k, MAX_POWER_WORK)
    whole = clamped * math.log2(c0 + s)
    if s:
        m = n // next(v for v in range(1, n + 1) if cs[v])
        spread = math.log2(k * s) - math.log2(c0)
        whole = min(whole, clamped * math.log2(c0) + m * max(0.0, spread) + math.log2(m + 1))
    if k.bit_length() * (n + 1) * whole > MAX_POWER_WORK:
        raise ValueError(f"power too large: a {k.bit_length()}-bit exponent at order {n}")


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

    sign=+1 builds (q^a; q^b)_oo, sign=-1 builds (-q^a; q^b)_oo.  The
    product is Euler's sum (x; q)_oo = sum_n (-1)^n q^{n(n-1)/2} x^n / (q; q)_n
    at q -> q^b, x = sign q^a (Andrews, The Theory of Partitions, Thm 2.1
    and Cor. 2.2).  Its term n starts at q^T(n), T(n) = a n + b n(n-1)/2,
    so about sqrt(2N/b) terms reach order N.  They are summed in Horner's
    form, innermost first: S <- 1 - sign q^{a+(l-1)b} S / (1 - q^{lb}) for
    each level l from the last term down to 1, with S kept to the
    N + 1 - T(l) coefficients that can still reach the result.  Dividing
    by 1 - q^m is a running sum on each residue class mod m, done in
    min(m, N/m) slice operations, so the build is O(N sqrt(N/b)) additions
    where one pass per factor would be O(N^2/b).
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if a < 1 or b < 1:
        raise ValueError(f"pochhammer needs a >= 1 and b >= 1, got a={a}, b={b}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    n = 0
    while a * (n + 1) + b * (n + 1) * n // 2 <= order:
        n += 1
    # s holds (-sign)^(l-1) S at level l, so each step is
    # s <- (-sign)^(l-1) + q^{a+(l-1)b} s / (1 - q^{lb}) and no level pays
    # for negating every coefficient
    s = [(-sign) ** n] + [0] * (order - a * n - b * n * (n - 1) // 2)
    for level in range(n, 0, -1):
        m = level * b
        if m * m <= len(s):
            # few long residue classes: one running sum each
            for r in range(m):
                s[r::m] = accumulate(s[r::m])
        else:
            # few long blocks: each block adds the one before it
            for j in range(m, len(s), m):
                s[j : j + m] = map(operator.add, s[j : j + m], s[j - m : j])
        s = [(-sign) ** (level - 1)] + [0] * (a + (level - 1) * b - 1) + s
    return Series(s)


# ----------------------------------------------------------------------
# sparse eta kernels
# ----------------------------------------------------------------------
#
# A row is the sparse polynomial 1 + k (sum q^plus - sum q^minus) as its
# scale k and its two sorted exponent lists, every exponent in 1..limit.

def _theta_terms(u: int, v: int, s: int, limit: int) -> tuple:
    """Ramanujan's f(s q^u, s q^v) = sum_{n in Z} s^n q^{u n(n+1)/2 + v n(n-1)/2}
    up to q^limit, as the row (k, plus, minus).  When u == v, n and -n
    share an exponent and a sign, so k is 2; otherwise it is 1."""
    plus, minus = set(), set()
    for step in (1, -1):
        n = step
        while (e := (u * n * (n + 1) + v * n * (n - 1)) // 2) <= limit:
            (minus if s < 0 and n & 1 else plus).add(e)
            n += step
    return 1 + (u == v), sorted(plus), sorted(minus)


def _times(c: list, k: int, plus: list, minus: list) -> list:
    """c times the row, truncated to len(c).  A sparse c, fewer than one
    coefficient in SPARSE_BASE nonzero (a constant, or a row seeded from
    one), is multiplied term by term (_times_by_term); any other c takes
    one full-length slice update per exponent."""
    if SPARSE_BASE * (len(c) - c.count(0)) < len(c):
        return _times_by_term(c, k, plus, minus)
    out = list(c)
    kc = c if k == 1 else [k * x for x in c]
    for step, exponents in ((operator.add, plus), (operator.sub, minus)):
        for e in exponents:
            out[e:] = map(step, out[e:], kc)
    return out


def _times_by_term(c: list, k: int, plus: list, minus: list) -> list:
    """c times the row, truncated to len(c): +-k c_i added at i + e for
    each nonzero c_i and each exponent e below len(c) - i, so
    O(terms x exponents) where the slice updates are O(len(c) x exponents)."""
    out = list(c)
    size = len(c)
    for i in compress(range(size), c):
        for kx, exponents in ((k * c[i], plus), (-k * c[i], minus)):
            for e in exponents:
                if i + e >= size:
                    break
                out[i + e] += kx
    return out


def _windows(plus: list, minus: list, size: int):
    """The runs start..stop-1 of n in 0..size-1 cut at each exponent, each
    with the exponents of either sign that are <= start, which are the
    e <= n all through the run."""
    bounds = [0, *sorted(plus + minus), size]
    for start, stop in zip(bounds, bounds[1:]):
        yield start, stop, plus[: bisect_right(plus, start)], minus[: bisect_right(minus, start)]


def _picker(exponents: list):
    """The function g -> (g[-e] for e in exponents), one C-level call.
    While g_n is computed g holds n coefficients, so g[-e] is g_{n-e}."""
    return (operator.itemgetter(*map(operator.neg, exponents)) if len(exponents) > 1
            else lambda g: [g[-e] for e in exponents])


def _divide(c: list, k: int, plus: list, minus: list) -> list:
    """g with g * (row) = c, one coefficient at a time:
    g_n = c_n - k (sum_plus g_{n-e} - sum_minus g_{n-e}), the recurrence
    of the paper's kind."""
    g = []
    for start, stop, ps, ms in _windows(plus, minus, len(c)):
        plus_at, minus_at = _picker(ps), _picker(ms)
        for n in range(start, stop):
            g.append(c[n] - k * (sum(plus_at(g)) - sum(minus_at(g))))
    return g


# The rows: each is its builder, limit -> (k, plus, minus), the eta quotient
# prod (q^b; q^b)^{a_b} it expands, as {b: a_b}, and its cost per pass at
# stride 1.  A pass at stride b touches about len(c) coefficients for each
# of density * sqrt(limit / b) exponents, so its cost relative to other
# passes of the same length is density / sqrt(b) whatever the order.  The
# theta rows are the Jacobi triple products f(s q^u, s q^v) =
# (-s q^u; q^{u+v}) (-s q^v; q^{u+v}) (q^{u+v}; q^{u+v}) that are eta
# quotients (Berndt, Ramanujan's Notebooks III, ch. 16, entry 22); their n
# runs over about 2 sqrt(2 limit / (u + v)) integers, half as many
# exponents when u == v, and the scale k is 1, or 2 when u == v.
_ROWS = tuple(
    (partial(_theta_terms, u, v, s), vector, 2 * math.sqrt(2 / (u + v)) / (1 + (u == v)))
    for (u, v, s), vector in (
        ((1, 2, -1), {1: 1}),               # f(-q, -q^2) = (q; q), Euler
        ((1, 1, -1), {1: 2, 2: -1}),        # f(-q, -q) = phi(-q)
        ((1, 1, 1), {1: -2, 2: 5, 4: -2}),  # f(q, q) = phi(q)
        ((1, 3, 1), {1: -1, 2: 2}),         # f(q, q^3) = psi(q)
        ((1, 3, -1), {1: 1, 2: -1, 4: 1}),  # f(-q, -q^3) = psi(-q)
    )
)
_EULER = _ROWS[0]


# _peel prices the same few (b, a) pairs over and over: 13,161 vectors
# like the planner tests' took 1.7-1.9 s to plan with this cache and
# 3.7-5.3 s without (2-core host, CPython 3.11).
@lru_cache(maxsize=4096)
def _alone(b: int, a: int) -> tuple:
    """The cost and the passes of (q^b; q^b)^a by the Euler or Miller
    kernel alone: Euler's row |a| times for |a| <= 3, and past that the
    Miller pass (None, b, a), which sums over Euler's exponents twice,
    weighted and plain, for each of limit coefficients, then takes one
    dense product, about three Euler passes at stride 1 (measured at
    orders 300 and 1000).

    The cutoff is not where these prices break even, at 2/b + 3 sqrt(b)
    Euler passes (5 at b = 1).  The prices charge every Miller pass its
    dense product, but _plan puts Miller passes first, and on a base of
    1 the first one's product is a scale by a constant (see _product),
    O(N).  So a quotient with one large leftover, such as (q^5; q^5)^6,
    is one Miller pass and no dense product, where the prices alone
    would plan six row passes at stride 5.  A plan with several Miller
    passes pays each later product, and there the prices can choose
    better.  Nor do the prices see that a row multiply on a base of 1
    is term by term (_times), far under its price.  One rule for all of
    these would need a price that knows the base."""
    if abs(a) > 3:
        return 2 * _EULER[2] / b**1.5 + 3 * _EULER[2], ((None, b, a),)
    return abs(a) * _EULER[2] / math.sqrt(b), ((_EULER[0], b, 1 if a > 0 else -1),) * abs(a)


def _peel(rest: dict) -> list:
    """The theta-row passes for one chain b, 2b, 4b, ... of a vector,
    taken off `rest` in place, greedily: while one lowers the total cost,
    the row, stride and direction that lowers it most.  Each step adds a
    row's cost and lowers the total, which starts at the kernels' cost,
    so the steps are bounded by that cost over the cheapest row's,
    whatever the size of the a_b."""
    strides = {b // d for b in rest for d in (1, 2, 4) if b % d == 0}
    moves = [(row[0], s, direction, row[2] / math.sqrt(s),
              [(s * k, direction * a) for k, a in row[1].items()])
             for row in _ROWS[1:] for s in sorted(strides) for direction in (1, -1)]
    passes = []
    while True:
        best, best_gain = None, 1e-9
        for move in moves:
            gain = -move[3]
            for key, a in move[4]:
                old = rest.get(key, 0)
                gain += _alone(key, old)[0] - _alone(key, old - a)[0]
            if gain > best_gain:
                best, best_gain = move, gain
        if best is None:
            return passes
        builder, s, direction, _, keys = best
        for key, a in keys:
            rest[key] = rest.get(key, 0) - a
        passes.append((builder, s, direction))


@lru_cache(maxsize=256)
def _plan(etas: tuple) -> tuple:
    """How eta_quotient applies the sorted nonzero (b, a_b) pairs, as one
    ordered tuple of passes: a row pass (builder, stride, +1 to multiply
    or -1 to divide), or a Miller pass (None, b, a_b) for an exponent
    that Miller's recurrence takes whole.

    A row spans b, 2b and 4b at most, so each chain of keys with one odd
    part is planned on its own (_peel), which keeps planning time linear
    in the number of keys; whatever the rows leave goes to
    the Euler and Miller kernels (_alone).  One stable sort puts Miller
    passes first, then row multiplies, then row divides.  Row passes
    commute and each is exact, so the order changes no coefficient, only
    the base each pass meets: on a base of 1 the first Miller pass's
    product is a scale by a constant (see _product), not a dense one, and
    the first row multiply is the row itself, which _times builds term by
    term, as it does a second multiply on that sparse base.
    """
    chains = {}
    for b, a in etas:
        chains.setdefault(b // (b & -b), {})[b] = a
    passes = []
    for rest in chains.values():
        passes += _peel(rest)
        for b, a in sorted(rest.items()):
            passes += _alone(b, a)[1]
    return tuple(sorted(passes, key=lambda p: (p[0] is not None, p[0] is not None and p[2] < 0)))


def _eta_power(a: int, limit: int) -> list:
    """(q; q)_oo^a up to q^limit, by J. C. P. Miller's recurrence for the
    power of a series f with f_0 = 1:

        n g_n = sum_{k=1..n} ((a+1) k - n) f_k g_{n-k},

    with f Euler's pentagonal sum, so each g_n costs O(sqrt(n)) terms
    whatever the size of a.  The division by n is exact.
    """
    g = [1]
    # Euler's row is (1, plus, minus): its weights are +-1
    for start, stop, ps, ms in _windows(*_EULER[0](limit)[1:], limit + 1):
        plus_at, minus_at = _picker(ps), _picker(ms)
        for n in range(max(start, 1), stop):
            gp, gm = plus_at(g), minus_at(g)
            s1 = sum(map(operator.mul, ps, gp)) - sum(map(operator.mul, ms, gm))
            g.append(((a + 1) * s1 - n * (sum(gp) - sum(gm))) // n)
    return g


# eta_quotient keeps what it expands on a base of 1 (_EtaMemo), one entry
# per plan at the highest order expanded, and drops its least recently
# used entries while their coefficients take more than this many bytes.
# The bundled suite's 27 entries take 52 MiB at order 32000, so the suite
# drops none there; at higher orders the bound, not the number of
# vectors, caps the memory the memo holds.
ETA_MEMO_BYTES = 64 << 20


class _EtaMemo:
    """Expansions on a base of 1, one per plan, least recently used first.

    Every pass finds its coefficient n from coefficients 0..n alone, so
    an expansion at order N holds the same plan's expansion at every
    order M <= N as its first M + 1 coefficients (Knuth, TAOCP vol. 2,
    §4.7): an entry is keyed on the plan, not the order, and keeps the
    highest order expanded.  An entry is the Series returned and its
    bytes, the coefficient tuple's and its ints' as sys.getsizeof counts
    them, and the entries take at most ETA_MEMO_BYTES in all."""

    def __init__(self):
        self.entries = OrderedDict()  # plan -> (Series, bytes)
        self.bytes = 0

    def longest_prefix(self, order: int, plan: tuple):
        """(i, series) for the longest plan[:i], i >= 1, that is stored at
        `order` or above, marked as just used, with the stored Series
        itself at `order` and truncated to `order` above it; or (0, None)."""
        for i in range(len(plan), 0, -1):
            key = plan[:i]
            value, _ = self.entries.get(key, (None, 0))
            if value is not None and value.order >= order:
                self.entries.move_to_end(key)
                return i, value if value.order == order else value.truncate(order)
        return 0, None

    def store(self, plan: tuple, value: Series) -> None:
        """Keep `value` as the plan's entry, in place of any entry it
        has at a lower order."""
        # an int is not tracked by the collector, so its __sizeof__ is its
        # getsizeof, and a seventh of the cost over 1000 coefficients
        size = sys.getsizeof(value.coeffs) + sum(map(int.__sizeof__, value.coeffs))
        if size > ETA_MEMO_BYTES:
            return
        self.bytes -= self.entries.pop(plan, (None, 0))[1]
        self.entries[plan] = value, size
        self.bytes += size
        while self.bytes > ETA_MEMO_BYTES:
            self.bytes -= self.entries.popitem(last=False)[1][1]

    def clear(self) -> None:
        self.entries.clear()
        self.bytes = 0


_ETA_MEMO = _EtaMemo()


def eta_quotient(etas: dict, order: int, base: Optional[Series] = None) -> Series:
    """base * prod_b (q^b; q^b)_oo^{a_b} at `order`, for etas = {b: a_b};
    with no base, a base of 1.

    The vector is applied as the one ordered list of sparse passes that
    _plan picks for it, once per vector: a row pass multiplies by a theta
    row, a triple product that is an eta quotient, as its scale and its
    two exponent lists of about sqrt(N/b) exponents in all, scaled by the
    stride b, or divides by one through its recurrence.  pod's
    {1: -1, 2: 1, 4: -1} is one division by psi(-q) = f(-q, -q^3), and
    phi(+-q) and psi(q) are rows too.  What the rows leave goes to the
    kernels: a_b = +-1, +-2 or +-3 to Euler's pentagonal sum |a_b|
    times, and any larger |a_b| to a Miller pass, Miller's recurrence
    at order N // b multiplied in once by _product.  Miller passes come
    first, then row multiplies, then row divides, so on a base of 1 the
    first Miller pass's product is a scale by a constant, which _product
    does in O(N), and a row multiply on a base of few terms is term by
    term, which _times does in O(terms sqrt(N/b)).  No plan costs more
    than those kernels alone, and none runs a loop |a_b| times past
    |a_b| = 3.

    With no base the plan resumes from its longest prefix stored in the
    memo (_EtaMemo) at `order` or above, truncated to `order`, runs only
    the passes after it, and stores the whole plan's result in place of
    any lower order's.  A plan stored whole at `order` returns the stored
    Series itself, so gf(pod) and poch(-q^1, q^2) / poch(q^2, q^2) are
    one object, and such a hit builds no series; stored at a higher
    order, it returns the stored Series truncated, and runs no pass.
    Series are immutable and each pass finds coefficient n from
    coefficients 0..n, so a hit is bit-identical to a cold expansion.  A
    given base, which must be at `order`, is never looked up or stored.
    """
    for b, a in etas.items():
        if not isinstance(b, int):
            raise TypeError(f"eta quotient keys must be int, got {type(b).__name__}")
        if b < 1:
            raise ValueError(f"eta quotient keys must be >= 1, got {b}")
        if not isinstance(a, int):
            raise TypeError(f"eta quotient exponents must be int, got {type(a).__name__}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if base is not None and base.order != order:
        raise ValueError(f"base order {base.order} differs from order {order}")
    # (q^b; q^b)_oo is 1 up to q^order once b > order
    plan = _plan(tuple(sorted((b, a) for b, a in etas.items() if a and b <= order)))
    one = bool(plan) and base is None
    done, found = _ETA_MEMO.longest_prefix(order, plan) if one else (0, None)
    if done == len(plan) and found is not None:
        return found
    start = base if found is None else found
    c = [1] + [0] * order if start is None else list(start.coeffs)
    for builder, b, a in plan[done:]:
        if builder is None:
            power = [0] * (order + 1)
            power[:: b] = _eta_power(a, order // b)
            c = _product(c, power, order + 1)
        else:
            k, plus, minus = builder(order // b)
            c = (_times if a > 0 else _divide)(c, k, [b * e for e in plus], [b * e for e in minus])
    value = Series(c)
    if one:
        _ETA_MEMO.store(plan, value)
    return value


def equal_upto(a: Series, b: Series, order: int) -> Optional[Mismatch]:
    """Compare coefficients 0..order; None on agreement, else the first gap."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order > a.order or order > b.order:
        raise IndexError(
            f"comparison order {order} exceeds a series order "
            f"({a.order} vs {b.order})"
        )
    x, y = a.coeffs[: order + 1], b.coeffs[: order + 1]
    if x == y:
        return None
    i = next(i for i, (u, v) in enumerate(zip(x, y)) if u != v)
    return Mismatch(i, x[i], y[i])
