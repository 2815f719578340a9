"""Shared helpers for the test suite, and the reference kernels.

`reference_product`, `reference_inverse` and `reference_pochhammer` are
the plain quadratic algorithms the library's kernels replaced: the
schoolbook Cauchy convolution, the unit-constant recurrence and the
per-index Pochhammer update.  They are slow and obviously right, and the
fast kernels must equal them bit for bit.

`reference_evaluate` is the plain tree walk the evaluator replaced above
small orders: every node is a dense Series, every product a `*` and every
quotient an inverse.  The eta-quotient evaluator must give the same
coefficients, or raise the same exception with the same message.

`reference_count` is the enumeration oracle's old per-n generator: it
builds the objects of total exactly n one slot at a time, skipping a slot
as a branch of its own, and counts them with the function's own rule.
The single walk behind `count_by_enumeration` must equal it.

`reference_tokenize` is the identity language's old character-by-
character lexer.  The one-pattern `dsl.tokenize` must give the same
tokens, or the same ParseError message at the same offset.
"""

import itertools
import random

import pytest

from podium import dsl, partitions
from podium.series import Series, constant, pochhammer, q_power
from podium.theta import theta_series


def reference_product(a: Series, b: Series) -> Series:
    """Schoolbook convolution, truncated to the smaller order."""
    n = min(a.order, b.order)
    x = a.coeffs[: n + 1]
    y = b.coeffs[: n + 1]
    return Series(sum(u * v for u, v in zip(x, y[m::-1])) for m in range(n + 1))


def reference_inverse(a: Series) -> Series:
    """b_0 = a_0, b_n = -a_0 * sum_{k=1..n} a_k b_{n-k}, for a_0 = +1 or -1."""
    c = a.coeffs
    b = [c[0]] + [0] * a.order
    for m in range(1, a.order + 1):
        b[m] = -c[0] * sum(u * v for u, v in zip(c[1 : m + 1], b[m - 1 :: -1]))
    return Series(b)


def reference_pochhammer(sign: int, a: int, b: int, order: int) -> Series:
    """prod_{k>=0} (1 - sign * q^{a+k*b}), one coefficient at a time."""
    c = [1] + [0] * order
    e = a
    while e <= order:
        for i in range(order, e - 1, -1):
            c[i] -= sign * c[i - e]
        e += b
    return Series(c)


def reference_evaluate(node, order: int) -> Series:
    """Walk the tree node by node with dense Series arithmetic; gf(f) walks
    its product form the same way."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if isinstance(node, dsl.IntLit):
        return constant(node.value, order)
    if isinstance(node, dsl.QPow):
        return q_power(node.k, order)
    if isinstance(node, dsl.Poch):
        return pochhammer(node.sign, node.a, node.b, order)
    if isinstance(node, dsl.GfRef):
        return reference_evaluate(dsl.parse(partitions.PRODUCT_FORMS[node.fid]), order)
    if isinstance(node, dsl.Subst):
        return reference_evaluate(node.child, order).substitute(node.k, node.sign)
    if isinstance(node, dsl.Chain):
        value = reference_evaluate(node.first, order)
        for op, operand in node.rest:
            term = reference_evaluate(operand, order)
            if op == "+":
                value = value + term
            elif op == "-":
                value = value - term
            elif op == "*":
                value = value * term
            else:
                value = value * term.inverse()
        return value
    if isinstance(node, dsl.Pow):
        return reference_evaluate(node.child, order).power(node.exponent)
    if isinstance(node, dsl.Neg):
        return -reference_evaluate(node.child, order)
    if isinstance(node, dsl.Theta):
        weight = node.weight
        exponent = node.exponent
        return theta_series(
            node.domain,
            lambda n: dsl._ieval(weight, n),
            lambda n: dsl._ieval(exponent, n),
            order,
        )
    raise TypeError(f"not a series expression: {node!r}")


def outcome(evaluate, text: str, order: int):
    """The coefficients of `text` at `order`, or the exception's type and message."""
    try:
        return list(evaluate(dsl.parse(text), order))
    except ValueError as exc:
        return type(exc), str(exc)


def reference_tokenize(text: str) -> list:
    """One character at a time: ASCII digits make an int, a letter or "_"
    starts a name that runs over str.isalnum and "_", and only space, tab,
    CR and LF are skipped."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in "0123456789":
            j = i
            while j < n and text[j] in "0123456789":
                j += 1
            tokens.append(dsl.Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(dsl.Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^(){},;":
            tokens.append(dsl.Token("sym", ch, i))
            i += 1
            continue
        raise dsl.ParseError(f"unexpected character {ch!r}", i)
    tokens.append(dsl.Token("end", "", n))
    return tokens


def _iter_partitions(n, slots):
    acc = []

    def rec(i, remaining):
        if remaining == 0:
            yield tuple(acc)
            return
        if i == len(slots):
            return
        size, cap = slots[i]
        top = remaining // size
        if cap is not None and cap < top:
            top = cap
        for mult in range(top, 0, -1):
            acc.append((size, mult))
            yield from rec(i + 1, remaining - size * mult)
            acc.pop()
        yield from rec(i + 1, remaining)

    yield from rec(0, n)


def reference_count(fid: partitions.FunctionId, n: int) -> int:
    """Signed count of the objects of total n, one generator per n, no cap."""
    rule = partitions._RULES[fid]
    total = 0
    for parts in _iter_partitions(n, rule.slots(n)):
        if rule.keep is not None and not rule.keep(parts):
            continue
        w = rule.weight(parts)
        if rule.overlined:
            for _ in itertools.product((False, True), repeat=len(parts)):
                total += w
        else:
            total += w
    return total


@pytest.fixture
def no_walk(monkeypatch):
    """Make any enumeration walk fail, to show a refused call starts none."""

    def walk(fid, limit):
        raise AssertionError(f"walked {fid.value} to {limit}")

    monkeypatch.setattr(partitions, "_enumeration_table", walk)


def random_series(rng: random.Random, order: int) -> Series:
    coeffs = []
    for _ in range(order + 1):
        if rng.random() < 0.9:
            coeffs.append(rng.randint(-9, 9))
        else:
            coeffs.append(rng.randint(-(10**12), 10**12))
    return Series(coeffs)


def unit_series(rng: random.Random, order: int) -> Series:
    coeffs = [rng.choice((1, -1))]
    coeffs.extend(rng.randint(-9, 9) for _ in range(order))
    return Series(coeffs)


def run_algebra_trials(seed: int, rounds: int) -> int:
    """Randomized ring-law checks; returns the number of cases exercised.

    Each round draws fresh operands at a random order up to 64 and checks
    that the product equals the schoolbook reference and commutes,
    associativity, distributivity, that the inverse equals the recurrence
    reference and meets its contract, and the substitution support
    property.  Any violation asserts.
    """
    rng = random.Random(seed)
    cases = 0
    for _ in range(rounds):
        order = rng.randint(0, 64)
        a = random_series(rng, order)
        b = random_series(rng, order)
        c = random_series(rng, order)

        ab = a * b
        assert list(ab) == list(reference_product(a, b))
        assert ab == b * a
        cases += 1
        assert a * (b * c) == (a * b) * c
        cases += 1
        assert a * (b + c) == a * b + a * c
        cases += 1

        u = unit_series(rng, order)
        inverse = u.inverse()
        assert list(inverse) == list(reference_inverse(u))
        assert u * inverse == constant(1, order)
        cases += 1

        k = rng.randint(1, 4)
        sign = rng.choice((1, -1))
        sub = a.substitute(k, sign)
        assert all(sub[i] == 0 for i in range(order + 1) if i % k)
        cases += 1
    return cases
