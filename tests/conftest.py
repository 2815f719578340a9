"""Shared helpers for the test suite, and the reference kernels.

`reference_product`, `reference_inverse` and `reference_pochhammer` are
the plain quadratic algorithms the library's kernels replaced: the
schoolbook Cauchy convolution, the unit-constant recurrence and the
per-index Pochhammer update, one factor at a time.  They are slow and
obviously right, and the fast kernels (the Kronecker product, the Newton
inverse and the Euler-sum Pochhammer build) must equal them bit for bit.

`reference_evaluate` is the plain tree walk the evaluator replaced above
small orders: every node is a dense Series, every `poch` the reference
Pochhammer product, every product a `*` and every quotient an inverse.
The eta-quotient evaluator must give the same coefficients, or raise the
same exception with the same message.

`reference_count` is the enumeration oracle's old per-n generator: it
builds the objects of total exactly n one slot at a time, skipping a slot
as a branch of its own, and counts them with the function's own part
rule and `reference_weight`, never the rule's weight.  Those weights are
the plain definitions, built from lists and sets: a sign from the parity
of a part count, the even-below-odd test of eo and eobar, and for an
overpartition (opbar, opodd) one count per way to overline its distinct
part values, one choice at a time.  The single walk behind
`count_by_enumeration` must equal it, and each rule's weight, the fold
of its step over an object's parts, must equal its reference on every
object.

`reference_tokenize` is the identity language's old character-by-
character lexer.  The one-pattern `dsl.tokenize` must give the same
tokens, or the same ParseError message at the same offset.
`reference_parse` is the old recursive-descent parser over its tokens,
one (kind, text, offset) token read at a time through peek and advance.
`dsl.parse`, which lexes in one pass and reads a list of token texts,
must give the same tree, or a ParseError with the same message, offset
and expected set.
"""

import itertools
import random
from collections import namedtuple

import pytest

from podium import dsl, partitions, series
from podium.series import Series, constant, q_power
from podium.theta import Domain, theta_series


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
        return reference_pochhammer(node.sign, node.a, node.b, order)
    if isinstance(node, dsl.GfRef):
        return reference_evaluate(dsl.parse(dsl.PRODUCT_FORMS[node.fid]), order)
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


Token = namedtuple("Token", "kind text offset")  # kind: "int" | "name" | "sym" | "end"


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
            tokens.append(Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^(){},;":
            tokens.append(Token("sym", ch, i))
            i += 1
            continue
        raise dsl.ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token("end", "", n))
    return tokens


class _ReferenceParser:
    # `nesting` counts the levels still open, so deep text is refused on
    # the way down, before the parser's own recursion is deep.  Tokens are
    # matched by text alone: no two kinds of token share one.

    def __init__(self, text: str):
        self.tokens = reference_tokenize(text)
        self.pos = 0
        self.nesting = 0
        self.var = ""  # the theta variable, while a theta body is parsed

    def nested(self, tok, parse, close: str = ""):
        if self.nesting == dsl.MAX_DEPTH:
            raise dsl.ParseError(f"expression deeper than {dsl.MAX_DEPTH} levels", tok.offset)
        self.nesting += 1
        node = parse()
        self.nesting -= 1
        if close:
            self.expect(close)
        return node

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, *texts) -> bool:
        return self.tokens[self.pos].text in texts

    def fail(self, expected):
        tok = self.peek()
        got = repr(tok.text) if tok.kind != "end" else "end of input"
        raise dsl.ParseError(f"unexpected {got}", tok.offset, expected)

    def expect(self, text: str):
        if not self.at(text):
            self.fail((repr(text),))
        return self.advance()

    def sign(self) -> int:
        if self.at("-"):
            self.advance()
            return -1
        return 1

    def expect_int(self, minimum: int = 0) -> int:
        tok = self.peek()
        if tok.kind != "int":
            self.fail(("integer",))
        try:
            value = int(tok.text)
        except ValueError:  # past the interpreter's limit on digits per int
            raise dsl.ParseError("integer literal too long", tok.offset) from None
        if value < minimum:
            raise dsl.ParseError(f"integer must be >= {minimum}", tok.offset)
        self.advance()
        return value

    def expect_q_power(self) -> int:
        self.expect("q")
        self.expect("^")
        return self.expect_int(1)

    def chain(self, operand, ops):
        first = operand()
        rest = []
        while self.peek().text in ops:
            op = self.advance().text
            rest.append((op, ops[op]()))
        if not rest:
            return first
        if isinstance(first, dsl.Chain) and first.rest[0][0] in ops:
            return dsl.Chain(first.first, first.rest + tuple(rest))
        return dsl.Chain(first, tuple(rest))

    def parse_expr(self):
        return self.chain(self.parse_term, {"+": self.parse_term, "-": self.parse_term})

    def parse_term(self):
        return self.chain(self.parse_factor, {"*": self.parse_factor, "/": self.parse_factor})

    def parse_factor(self):
        if self.at("-"):
            return dsl.Neg(self.nested(self.advance(), self.parse_factor))
        node = self.parse_base()
        if self.at("^"):
            self.advance()
            node = dsl.Pow(node, self.sign() * self.expect_int())
        return node

    def parse_base(self):
        tok = self.peek()
        if tok.kind == "int":
            return dsl.IntLit(self.expect_int())
        if self.at("("):
            return self.nested(self.advance(), self.parse_expr, ")")
        if self.at("q"):
            return dsl.QPow(self.expect_q_power())
        if self.at("poch"):
            return self.parse_poch()
        if self.at("gf"):
            return self.parse_gfref()
        if self.at("subst"):
            return self.parse_subst()
        if self.at("theta"):
            return self.parse_theta()
        self.fail(("integer", "'q'", "'poch'", "'gf'", "'subst'", "'theta'", "'('", "'-'"))

    def parse_poch(self):
        self.expect("poch")
        self.expect("(")
        sign = self.sign()
        a = self.expect_q_power()
        self.expect(",")
        b = self.expect_q_power()
        self.expect(")")
        return dsl.Poch(sign, a, b)

    def parse_gfref(self):
        self.expect("gf")
        self.expect("(")
        tok = self.peek()
        if tok.kind != "name":
            self.fail(("function name",))
        try:
            fid = dsl.FunctionId.from_name(tok.text)
        except ValueError:
            known = ", ".join(f.value for f in dsl.FunctionId)
            raise dsl.ParseError(f"unknown gf name {tok.text!r}", tok.offset, (known,)) from None
        self.advance()
        self.expect(")")
        return dsl.GfRef(fid)

    def parse_subst(self):
        tok = self.expect("subst")
        self.expect("(")
        child = self.nested(tok, self.parse_expr, ",")
        sign = self.sign()
        k = self.expect_q_power()
        self.expect(")")
        return dsl.Subst(child, k, sign)

    def parse_theta(self):
        theta = self.expect("theta")
        self.expect("{")
        tok = self.peek()
        if tok.kind != "name":
            self.fail(("variable name",))
        var = self.advance().text
        self.expect("in")
        if not self.at("Z", "N"):
            self.fail(("'Z'", "'N'"))
        domain = Domain(self.advance().text)
        self.expect("}")
        self.expect("(")
        self.var = var
        weight = self.nested(theta, self.parse_iexpr, ";")
        exponent = self.nested(theta, self.parse_iexpr, ")")
        return dsl.Theta(domain, var, weight, exponent)

    def parse_iexpr(self):
        return self.chain(self.parse_iterm, {"+": self.parse_iterm, "-": self.parse_iterm})

    def parse_iterm(self):
        ops = {"*": self.parse_ifact, "div": lambda: dsl.IntLit(self.expect_int(1))}
        return self.chain(self.parse_ifact, ops)

    def parse_ifact(self):
        tok = self.peek()
        if tok.kind == "int":
            return dsl.IntLit(self.expect_int())
        if tok.kind == "name" and tok.text != "ceil2":
            if tok.text != self.var:
                raise dsl.ParseError(
                    f"unbound variable {tok.text!r}", tok.offset, (repr(self.var),)
                )
            self.advance()
            return dsl.IVar(tok.text)
        if not self.at("ceil2", "("):
            self.fail(("integer", "variable", "'ceil2'", "'(-1)'", "'('"))
        self.advance()
        if tok.text == "(":
            if not self.at("-"):
                return self.nested(tok, self.parse_iexpr, ")")
            minus = self.advance()
            if not self.at("1"):
                raise dsl.ParseError("only (-1)^(...) may begin with '(-'", minus.offset)
            self.advance()
            self.expect(")")
            self.expect("^")
        self.expect("(")
        name = "ceil2" if tok.text == "ceil2" else "(-1)^"
        return dsl.IFunc(name, self.nested(tok, self.parse_iexpr, ")"))


def reference_parse(text: str):
    """Parse a series expression one token at a time; raises ParseError."""
    parser = _ReferenceParser(text)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise dsl.ParseError(
            f"unexpected trailing {tok.text!r}", tok.offset, ("end of input",)
        )
    return node


def iter_objects(n, slots):
    """Every object of total exactly n over `slots`, as the walk's parts:
    (size, multiplicity) pairs, largest size first."""
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


def _reference_alt_parts(parts):
    return -1 if sum(m for _, m in parts) % 2 else 1


def _reference_alt_odd_parts(parts):
    return -1 if sum(m for s, m in parts if s % 2) % 2 else 1


def _reference_eo(parts):
    evens = [s for s, _ in parts if s % 2 == 0]
    odds = [s for s, _ in parts if s % 2 == 1]
    return 1 if not evens or not odds or max(evens) < min(odds) else 0


def _reference_eobar(parts):
    # Only the largest even part may (and, when present, must) appear an
    # odd number of times; with no even part every multiplicity is even.
    if not _reference_eo(parts):
        return 0
    odd_mult = {s for s, m in parts if m % 2 == 1}
    evens = [s for s, _ in parts if s % 2 == 0]
    return 1 if odd_mult == ({max(evens)} if evens else set()) else 0


def _reference_overlinings(parts):
    # each distinct part value may or may not be overlined
    return sum(1 for _ in itertools.product((False, True), repeat=len(parts)))


_REFERENCE_WEIGHTS = {
    partitions.FunctionId.PEO: _reference_alt_parts,
    partitions.FunctionId.AFUN: _reference_alt_parts,
    partitions.FunctionId.QEO: _reference_alt_odd_parts,
    partitions.FunctionId.EO: _reference_eo,
    partitions.FunctionId.EOBAR: _reference_eobar,
    partitions.FunctionId.OPBAR: _reference_overlinings,
    partitions.FunctionId.OPODD: _reference_overlinings,
}


def reference_weight(fid: partitions.FunctionId):
    """The plain definition of what one object of `fid` counts; an
    object of a function with no weight counts 1."""
    return _REFERENCE_WEIGHTS.get(fid, lambda parts: 1)


def reference_count(fid: partitions.FunctionId, n: int) -> int:
    """Signed count of the objects of total n, one generator per n, no cap,
    each weighed by the plain definition of its function's weight."""
    weight = reference_weight(fid)
    return sum(weight(parts) for parts in iter_objects(n, partitions._RULES[fid].slots(n)))


@pytest.fixture
def no_walk(monkeypatch):
    """Make any enumeration walk fail, to show a refused call starts none."""

    def walk(fid, limit):
        raise AssertionError(f"walked {fid.value} to {limit}")

    monkeypatch.setattr(partitions, "_enumeration_table", walk)


@pytest.fixture
def cold_memo():
    """The eta memo (series._ETA_MEMO), empty before the test and after it,
    so that kernel calls counted in a test are not hidden by entries that
    earlier tests left."""
    series._ETA_MEMO.clear()
    yield series._ETA_MEMO
    series._ETA_MEMO.clear()


@pytest.fixture
def dense_products(monkeypatch):
    """The sizes of the `series._product` calls whose two operands are both
    non-constant, the Kronecker products; a product by a constant is a
    scale and is not listed."""
    sizes = []
    product = series._product

    def counted(a, b, size):
        if any(a[1:size]) and any(b[1:size]):
            sizes.append(size)
        return product(a, b, size)

    monkeypatch.setattr(series, "_product", counted)
    return sizes


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
