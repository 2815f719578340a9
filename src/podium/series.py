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
(:func:`eta_quotient`).  A theta row is a Jacobi triple product
f(+-q^u, +-q^v) that is an eta quotient -- Euler's pentagonal sum,
phi(+-q), psi(+-q) -- stored as data, with Jacobi's sum for the cube
beside them.  Each has about sqrt(N/b) terms at stride b, so
multiplying by one is that many slice updates, and dividing by one is
the linear recurrence g_n = c_n - sum_e w_e g_{n-e} over those
exponents, the kind of recurrence the pod paper derives (Andrews, The
Theory of Partitions, ch. 1-2).  A planner writes each vector {b: a_b}
once as one ordered list of a few such passes: pod's generating
function is 1/psi(-q), one division.  An exponent the rows leave past
the cube is a Miller pass, J. C. P. Miller's recurrence in
O(N sqrt(N/b)) steps for any exponent, multiplied in once; Miller
passes come first in the list.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
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

def _theta_terms(u: int, v: int, s: int, limit: int) -> list:
    """Ramanujan's f(s q^u, s q^v) = sum_{n in Z} s^n q^{u n(n+1)/2 + v n(n-1)/2}
    up to q^limit.  When u == v, n and -n share an exponent and their
    weights are merged."""
    weights = {}
    for step in (1, -1):
        n = step
        while (e := (u * n * (n + 1) + v * n * (n - 1)) // 2) <= limit:
            weights[e] = weights.get(e, 0) + (s if n & 1 else 1)
            n += step
    return sorted(weights.items())


def _jacobi(limit: int) -> list:
    """Jacobi: (q; q)_oo^3 = sum_{n>=0} (-1)^n (2n+1) q^{n(n+1)/2}."""
    terms = []
    n = 1
    while n * (n + 1) // 2 <= limit:
        terms.append((n * (n + 1) // 2, -(2 * n + 1) if n & 1 else 2 * n + 1))
        n += 1
    return terms


def _scale(terms: list) -> int:
    """k when every weight is +k or -k, as in each theta row; else 0."""
    scales = {abs(w) for _, w in terms}
    return scales.pop() if len(scales) == 1 else 0


def _times(c: list, terms: list) -> list:
    """c times the term list, truncated to len(c): one slice update per term."""
    out = list(c)
    k = _scale(terms)
    if k:
        kc = c if k == 1 else [k * x for x in c]
        for e, w in terms:
            out[e:] = map(operator.add if w > 0 else operator.sub, out[e:], kc)
    else:
        for e, w in terms:
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
    g_n = c_n - sum_e w_e g_{n-e}, the recurrence of the paper's kind.
    When every weight is +-k the sum is k times two plain sums."""
    exponents = [e for e, _ in terms]
    weights = [w for _, w in terms]
    plus = [e for e, w in terms if w > 0]
    minus = [e for e, w in terms if w < 0]
    k = _scale(terms)
    g = []
    for start, stop in _runs(exponents, len(c)):
        if k:
            plus_at = _picker(plus[: bisect_right(plus, start)])
            minus_at = _picker(minus[: bisect_right(minus, start)])
            for n in range(start, stop):
                g.append(c[n] - k * (sum(plus_at(g)) - sum(minus_at(g))))
        else:
            i = bisect_right(exponents, start)
            pick, ws = _picker(exponents[:i]), weights[:i]
            for n in range(start, stop):
                g.append(c[n] - sum(map(operator.mul, ws, pick(g))))
    return g


# The rows: each is a term-list builder, the eta quotient prod (q^b; q^b)^{a_b}
# it expands, as {b: a_b}, and its cost per pass at stride 1.  A pass at
# stride b touches about len(c) coefficients for each of density *
# sqrt(limit / b) terms, so its cost relative to other passes of the same
# length is density / sqrt(b) whatever the order; terms whose weights vary
# cost about two plain ones each.  The theta rows are the Jacobi triple
# products f(s q^u, s q^v) = (-s q^u; q^{u+v}) (-s q^v; q^{u+v})
# (q^{u+v}; q^{u+v}) that are eta quotients (Berndt, Ramanujan's Notebooks
# III, ch. 16, entry 22); their n runs over about 2 sqrt(2 limit / (u + v))
# integers, half as many exponents when u == v.
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
_JACOBI = (_jacobi, {1: 3}, 2 * math.sqrt(2))


# _peel prices the same few (b, a) pairs over and over: 13,161 vectors
# like the planner tests' took 1.7-1.9 s to plan with this cache and
# 3.7-5.3 s without (2-core host, CPython 3.11).
@lru_cache(maxsize=4096)
def _alone(b: int, a: int) -> tuple:
    """The cost and the passes of (q^b; q^b)^a by the Euler, Jacobi or
    Miller kernel alone: Euler's row |a| times for |a| <= 2, Jacobi's
    once for |a| == 3, and past that the Miller pass (None, b, a), which
    sums two of Euler's term lists for each of limit coefficients, then
    takes one dense product, about three Euler passes at stride 1
    (measured at orders 300 and 1000)."""
    if abs(a) > 3:
        return 2 * _EULER[2] / b**1.5 + 3 * _EULER[2], ((None, b, a),)
    row, count = (_JACOBI, 1) if abs(a) == 3 else (_EULER, abs(a))
    return count * row[2] / math.sqrt(b), ((row[0], b, 1 if a > 0 else -1),) * count


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
    the Euler, Jacobi and Miller kernels (_alone).  Miller passes come
    first, in a stable sort, so that on a base of 1 the first one is the
    result and takes no product.
    """
    chains = {}
    for b, a in etas:
        chains.setdefault(b // (b & -b), {})[b] = a
    passes = []
    for rest in chains.values():
        passes += _peel(rest)
        for b, a in sorted(rest.items()):
            passes += _alone(b, a)[1]
    return tuple(sorted(passes, key=lambda p: p[0] is not None))


def _eta_power(a: int, limit: int) -> list:
    """(q; q)_oo^a up to q^limit, by J. C. P. Miller's recurrence for the
    power of a series f with f_0 = 1:

        n g_n = sum_{k=1..n} ((a+1) k - n) f_k g_{n-k},

    with f Euler's pentagonal sum, so each g_n costs O(sqrt(n)) terms
    whatever the size of a.  The division by n is exact.
    """
    terms = _EULER[0](limit)
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

    The vector is applied as the one ordered list of sparse passes that
    _plan picks for it, once per vector: a row pass multiplies by a theta
    row, the term list of about sqrt(N/b) terms of a triple product that
    is an eta quotient, or divides by one through its recurrence.  pod's
    {1: -1, 2: 1, 4: -1} is one division by psi(-q) = f(-q, -q^3), and
    phi(+-q) and psi(q) are rows too.  What the rows leave goes to the
    kernels: a_b = +-1 or +-2 to Euler's pentagonal sum once or twice,
    +-3 to Jacobi's sum once, and any larger |a_b| to a Miller pass,
    Miller's recurrence at order N // b multiplied in once.  Miller
    passes come first, so on a base of 1 the first one is the result.
    No plan costs more than those kernels alone, and none runs a loop
    |a_b| times.
    """
    order = base.order
    c = list(base.coeffs)
    # (q^b; q^b)_oo is 1 up to q^order once b > order
    for builder, b, a in _plan(tuple(sorted((b, a) for b, a in etas.items() if a and b <= order))):
        if builder is None:
            power = [0] * (order + 1)
            power[:: b] = _eta_power(a, order // b)
            unit = c[0] == 1 and not any(c[1:])
            c = power if unit else _product(c, power, order + 1)
        else:
            terms = [(b * e, w) for e, w in builder(order // b)]
            c = (_times if a > 0 else _divide)(c, terms)
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
