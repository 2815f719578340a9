"""A small expression language for q-series, so identities are data.

Grammar (whitespace-insensitive)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := base ("^" sint)?
    base   := INT | "q" "^" UINT | poch | theta | gfref | subst
            | "(" expr ")" | "-" base
    poch   := "poch" "(" ("-")? "q" "^" UINT "," "q" "^" UINT ")"
    gfref  := "gf" "(" NAME ")"
    subst  := "subst" "(" expr "," ("-")? "q" "^" UINT ")"
    theta  := "theta" "{" NAME "in" ("Z"|"N") "}" "(" iexpr ";" iexpr ")"
    iexpr  := iterm (("+"|"-") iterm)*
    iterm  := ifact (("*") ifact | ("div") UINT)*
    ifact  := INT | NAME | "ceil2" "(" iexpr ")"
            | "(-1)" "^" "(" iexpr ")" | "(" iexpr ")"

"^" binds tightest, then "*" and "/" (left-associative), then "+" and
"-".  Unary minus binds tighter than "*".  INT and UINT are ASCII digits
0-9 only.  A token is a run of such digits, a word (a letter or "_", then
letters, digits or "_") or one symbol of -+*/^(){},; and only space,
tab, CR and LF may separate tokens.  The operators of one level, in a
theta body too, make one flat Chain node read left to right; "div" is
exact integer division and errors on any remainder, and "ceil2" is the
mathematical ceiling of half.  Parse errors carry the byte offset of the
offending token and the set of tokens that would have been accepted.

A theta exponent must be, on each parity class n = 2m + r, a polynomial
in m of degree at most 2 and not a falling quadratic, since the theta
scan runs on each class on its own.  The evaluator that sums a theta
body also reads it on a class, when n is the polynomial 2m + r.

Text is untrusted, so nesting deeper than MAX_DEPTH levels is a parse
error: each bracket, unary minus, "subst", "theta", "ceil2" and "(-1)^"
opens one.  Chains are flat, so each level adds at most a sum, a product
and a power to the tree, and the parser, evaluator and printer, which
all recurse, stay inside Python's default recursion limit.

This is the one path from text to a Series: the counting functions'
product forms and the named theta sums are text evaluated here.

Evaluation goes through an eta-quotient normal form (:func:`normal_form`):
an expression built from poch, gf and 1 by "*", "/", "^" and subst
becomes an exponent vector {b: a_b} for the factors (q^b; q^b)_oo, if
every poch in it is one.  The rewrites, all classical:

* (q^b; q^b) is {b: 1}, and (q^a; q^2a) = (q^a; q^a) / (q^2a; q^2a);
* (-q^a; q^b) = (q^2a; q^2b) / (q^a; q^b), then the two rules above;
* subst(., -q) maps (q^b; q^b) with b odd to
  (q^2b; q^2b)^3 / ((q^b; q^b) (q^4b; q^4b)), and leaves even b alone;
* subst(., q^k) multiplies every b by k;
* "*", "/" and "^" add, subtract and scale the vectors, and gf(f) lowers
  through its product form.

Anything else has no normal form: theta sums, polynomials, other
constants, sums, and a poch that is no eta quotient, such as (q; q^4).
The sparse eta kernels of :mod:`podium.series` expand a whole eta
quotient, once per vector and order (see :func:`evaluate`), and apply
the merged eta factors of a product chain to the product of its other
factors; the rest is walked node by node, so errors and their messages
are the walk's.  Below order NEWTON_BASE (32), the series layer's own
switch between small and large orders, all of it is walked; the kernels
gain nothing measurable there.
"""

from __future__ import annotations

import operator
import re
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from typing import Dict, Optional, Tuple, Union

from . import partitions  # read at call time: partitions imports this module
from .series import (
    NEWTON_BASE,
    Mismatch,
    Series,
    constant,
    equal_upto,
    eta_quotient,
    pochhammer,
    q_power,
)
from .theta import Domain, theta_series

MAX_DEPTH = 100


class ParseError(ValueError):
    """Syntax error with the byte offset and the expected-token set."""

    def __init__(self, message: str, offset: int, expected: Tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at offset {offset}"
        if self.expected:
            detail += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(detail)


class EvalError(ValueError):
    """Evaluation failed (inexact division, for instance)."""


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class QPow:
    k: int


@dataclass(frozen=True)
class Poch:
    sign: int
    a: int
    b: int


@dataclass(frozen=True)
class GfRef:
    fid: partitions.FunctionId


@dataclass(frozen=True)
class Subst:
    child: "Expr"
    k: int
    sign: int


@dataclass(frozen=True)
class Chain:
    """first op x op x ..., left to right, all ops of one level: + and -,
    * and /, or in a theta body * and div, whose operand is an IntLit."""
    first: "Expr"
    rest: Tuple[Tuple[str, "Expr"], ...]

    @property
    def is_sum(self) -> bool:
        return self.rest[0][0] in ("+", "-")

    @property
    def operands(self) -> Tuple[Tuple[str, "Expr"], ...]:
        """Every (op, operand) pair, the first operand's op "+" or "*"."""
        return (("+" if self.is_sum else "*", self.first),) + self.rest


@dataclass(frozen=True)
class Pow:
    child: "Expr"
    exponent: int


@dataclass(frozen=True)
class Neg:
    child: "Expr"


@dataclass(frozen=True)
class IVar:
    name: str


@dataclass(frozen=True)
class IFunc:
    """ceil2(child), the ceiling of half, or (-1)^(child), by name."""
    name: str
    child: "IExpr"


@dataclass(frozen=True)
class Theta:
    domain: Domain
    var: str
    weight: "IExpr"
    exponent: "IExpr"


IExpr = Union[IntLit, IVar, Chain, IFunc]
Expr = Union[IntLit, QPow, Poch, GfRef, Subst, Chain, Pow, Neg, Theta]


# ----------------------------------------------------------------------
# lexer
# ----------------------------------------------------------------------

# Whitespace, then an ASCII integer, a word or a symbol; the group that
# matched is the token's kind.  Nothing matched means end of input or an
# unexpected character.
_TOKEN = re.compile(r"[ \t\r\n]*(?:(?P<int>[0-9]+)|(?P<name>\w+)|(?P<sym>[-+*/^(){},;]))?")

Token = namedtuple("Token", "kind text offset")  # kind: "int" | "name" | "sym" | "end"


def tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while True:
        match = _TOKEN.match(text, pos)
        kind, pos = match.lastgroup, match.end()
        if kind is None:
            break
        word = match[kind]
        if kind == "name" and not (word[0].isalpha() or word[0] == "_"):
            pos = match.start(kind)  # a digit that is not ASCII, such as "²"
            break
        tokens.append(Token(kind, word, match.start(kind)))
    if pos < len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    tokens.append(Token("end", "", pos))
    return tokens


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

class _Parser:
    # `nesting` counts the levels still open, so deep text is refused on
    # the way down, before the parser's own recursion is deep.  Tokens are
    # matched by text alone: no two kinds of token share one.

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.nesting = 0
        self.var = ""  # the theta variable, while a theta body is parsed

    def nested(self, tok: Token, parse, close: str = ""):
        """Run `parse` one level inside the construct opened at `tok`, then
        expect `close` if given; past MAX_DEPTH levels is an error at `tok`."""
        if self.nesting == MAX_DEPTH:
            raise ParseError(f"expression deeper than {MAX_DEPTH} levels", tok.offset)
        self.nesting += 1
        node = parse()
        self.nesting -= 1
        if close:
            self.expect(close)
        return node

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, *texts) -> bool:
        return self.tokens[self.pos].text in texts

    def fail(self, expected: Tuple[str, ...]):
        tok = self.peek()
        got = repr(tok.text) if tok.kind != "end" else "end of input"
        raise ParseError(f"unexpected {got}", tok.offset, expected)

    def expect(self, text: str) -> Token:
        if not self.at(text):
            self.fail((repr(text),))
        return self.advance()

    def sign(self) -> int:
        """-1 after an optional "-", which is consumed, else 1."""
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
            raise ParseError("integer literal too long", tok.offset) from None
        if value < minimum:
            raise ParseError(f"integer must be >= {minimum}", tok.offset)
        self.advance()
        return value

    def expect_q_power(self, minimum: int = 1) -> int:
        self.expect("q")
        self.expect("^")
        return self.expect_int(minimum)

    def chain(self, operand, ops) -> Expr:
        """Parse `operand (op operand)*` as one Chain, or the lone operand.
        `ops` maps each operator's text to the parser of its operand.  A
        first operand that is a bracketed chain of the same level is spliced
        in, so "(a - b) - c" gives the tree of "a - b - c", as it reads."""
        first = operand()
        rest = []
        while self.peek().text in ops:
            op = self.advance().text
            rest.append((op, ops[op]()))
        if not rest:
            return first
        if isinstance(first, Chain) and first.rest[0][0] in ops:
            return Chain(first.first, first.rest + tuple(rest))
        return Chain(first, tuple(rest))

    # ---- series expressions ----

    def parse_expr(self) -> Expr:
        return self.chain(self.parse_term, {"+": self.parse_term, "-": self.parse_term})

    def parse_term(self) -> Expr:
        return self.chain(self.parse_factor, {"*": self.parse_factor, "/": self.parse_factor})

    def parse_factor(self) -> Expr:
        node = self.parse_base()
        if self.at("^"):
            self.advance()
            node = Pow(node, self.sign() * self.expect_int())
        return node

    def parse_base(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            return IntLit(self.expect_int())
        if self.at("-"):
            return Neg(self.nested(self.advance(), self.parse_base))
        if self.at("("):
            return self.nested(self.advance(), self.parse_expr, ")")
        if self.at("q"):
            return QPow(self.expect_q_power())
        if self.at("poch"):
            return self.parse_poch()
        if self.at("gf"):
            return self.parse_gfref()
        if self.at("subst"):
            return self.parse_subst()
        if self.at("theta"):
            return self.parse_theta()
        self.fail(("integer", "'q'", "'poch'", "'gf'", "'subst'", "'theta'", "'('", "'-'"))

    def parse_poch(self) -> Expr:
        self.expect("poch")
        self.expect("(")
        sign = self.sign()
        a = self.expect_q_power()
        self.expect(",")
        b = self.expect_q_power()
        self.expect(")")
        return Poch(sign, a, b)

    def parse_gfref(self) -> Expr:
        self.expect("gf")
        self.expect("(")
        tok = self.peek()
        if tok.kind != "name":
            self.fail(("function name",))
        try:
            fid = partitions.FunctionId.from_name(tok.text)
        except ValueError:
            known = ", ".join(f.value for f in partitions.FunctionId)
            raise ParseError(
                f"unknown gf name {tok.text!r}", tok.offset, (known,)
            ) from None
        self.advance()
        self.expect(")")
        return GfRef(fid)

    def parse_subst(self) -> Expr:
        tok = self.expect("subst")
        self.expect("(")
        child = self.nested(tok, self.parse_expr, ",")
        sign = self.sign()
        k = self.expect_q_power()
        self.expect(")")
        return Subst(child, k, sign)

    def parse_theta(self) -> Expr:
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
        return Theta(domain, var, weight, exponent)

    # ---- integer expressions inside theta, in the variable self.var ----

    def parse_iexpr(self) -> IExpr:
        return self.chain(self.parse_iterm, {"+": self.parse_iterm, "-": self.parse_iterm})

    def parse_iterm(self) -> IExpr:
        ops = {"*": self.parse_ifact, "div": lambda: IntLit(self.expect_int(1))}
        return self.chain(self.parse_ifact, ops)

    def parse_ifact(self) -> IExpr:
        tok = self.peek()
        if tok.kind == "int":
            return IntLit(self.expect_int())
        if tok.kind == "name" and tok.text != "ceil2":
            if tok.text != self.var:
                raise ParseError(
                    f"unbound variable {tok.text!r}", tok.offset, (repr(self.var),)
                )
            self.advance()
            return IVar(tok.text)
        if not self.at("ceil2", "("):
            self.fail(("integer", "variable", "'ceil2'", "'(-1)'", "'('"))
        self.advance()
        if tok.text == "(":
            if not self.at("-"):
                return self.nested(tok, self.parse_iexpr, ")")
            # "(-1)^(...)" is the only construct that may open with "(-"
            minus = self.advance()
            if not self.at("1"):
                raise ParseError("only (-1)^(...) may begin with '(-'", minus.offset)
            self.advance()
            self.expect(")")
            self.expect("^")
        self.expect("(")
        name = "ceil2" if tok.text == "ceil2" else "(-1)^"
        return IFunc(name, self.nested(tok, self.parse_iexpr, ")"))


def parse(text: str) -> Expr:
    """Parse a series expression; raises ParseError with a byte offset."""
    parser = _Parser(text)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(
            f"unexpected trailing {tok.text!r}", tok.offset, ("end of input",)
        )
    return node


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

# "+", "-" and "*" on ints, _OnClass values and Series alike
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _ieval(node: IExpr, value):
    """A theta body at n = value: an int, or on a class an _OnClass."""
    if isinstance(node, IntLit):
        return node.value
    if isinstance(node, IVar):
        return value
    if isinstance(node, Chain):
        total = _ieval(node.first, value)
        for op, operand in node.rest:
            if op == "div":
                quotient, remainder = divmod(total, operand.value)
                if remainder:
                    raise EvalError(f"{total} div {operand.value} is not exact")
                total = quotient
            else:
                total = _ARITH[op](total, _ieval(operand, value))
        return total
    if isinstance(node, IFunc):
        # on ints and _OnClass alike; x + x % 2 is even, so "// 2" is exact
        x = _ieval(node.child, value)
        return (x + x % 2) // 2 if node.name == "ceil2" else 1 - 2 * (x % 2)
    raise TypeError(f"not an integer expression: {node!r}")


class _OnClass:
    """A theta body on the class n = 2m + r, as sum_i c[i] m^i / d, d >= 1.

    _ieval runs on it as on an int, with n = _OnClass([r, 2], 1, r).  "div"
    and "//" divide exactly: ceil2 halves only even values, and the scan
    finds an inexact div.  "% 2" is the parity, fixed on the class or an
    EvalError: m^i and m have one parity, so with integer coefficients a
    it is that of a[0] + m*sum(a[1:]).  A product past 2^16 bits is refused.
    """

    def __init__(self, c: list, d: int, r: int):
        self.c, self.d, self.r = c, d, r

    def _lift(self, x) -> "_OnClass":
        return x if isinstance(x, _OnClass) else _OnClass([x], 1, self.r)

    def _plus(self, x: "_OnClass", sign: int) -> "_OnClass":
        c = [u * x.d + sign * v * self.d for u, v in zip_longest(self.c, x.c, fillvalue=0)]
        return _OnClass(c, self.d * x.d, self.r)

    def __add__(self, x):
        return self._plus(self._lift(x), 1)

    def __sub__(self, x):
        return self._plus(self._lift(x), -1)

    def __rsub__(self, x):
        return self._lift(x) - self

    def __mul__(self, x):
        x = self._lift(x)
        out = [0] * (len(self.c) + len(x.c) - 1)
        for i, u in enumerate(self.c):
            if u:
                for j, v in enumerate(x.c):
                    out[i + j] += u * v
        d = self.d * x.d
        if sum(map(int.bit_length, out)) + d.bit_length() > 1 << 16:
            raise EvalError("theta exponent is too large to read")
        return _OnClass(out, d, self.r)

    def __floordiv__(self, k: int) -> "_OnClass":
        return _OnClass(self.c, self.d * k, self.r)

    def __divmod__(self, k: int):
        return self // k, 0

    def __mod__(self, two: int) -> int:
        if any(u % self.d for u in self.c) or sum(self.c[1:]) // self.d % 2:
            why = "cannot fix a ceil2 or (-1)^ argument's parity"
            raise EvalError(f"theta exponent: {why} on n = 2m + {self.r}")
        return self.c[0] // self.d % 2

    __radd__, __rmul__ = __add__, __mul__


def _check_exponent(exponent: IExpr) -> None:
    """Refuse a theta exponent that the scan would sum wrongly.

    The scan in podium.theta runs over each parity class n = 2m + r on its
    own and stops at the first exponent above the order that is not below
    the one before; that is exact only if the exponent never turns
    downward on its class after it.  The exponent is read on each class as
    a polynomial in m by _ieval itself, the evaluation that the scan sums
    (see _OnClass).  A quadratic with a positive leading coefficient never
    turns downward; a falling line is refused by the scan when it turns
    negative, and a constant at or below the order when the scan runs out.
    A falling quadratic or any higher degree is refused here.
    """
    for r in (0, 1):
        c = (_OnClass([0], 1, r) + _ieval(exponent, _OnClass([r, 2], 1, r))).c
        degree = max((i for i, u in enumerate(c) if u), default=0)
        if degree > 2:
            raise EvalError(f"theta exponent has degree {degree}; it must be at most 2")
        if degree == 2 and c[2] < 0:
            raise EvalError("theta exponent is a quadratic that falls without bound")


# ----------------------------------------------------------------------
# eta-quotient normal form
# ----------------------------------------------------------------------

Etas = Dict[int, int]


def _poch_etas(sign: int, a: int, b: int) -> Optional[Etas]:
    """(+-q^a; q^b)_oo as powers of (q^c; q^c)_oo, or None if it is not one."""
    if sign == -1:
        # (-q^a; q^b) = (q^2a; q^2b) / (q^a; q^b)
        num = _poch_etas(1, 2 * a, 2 * b)
        den = _poch_etas(1, a, b)
        return None if num is None or den is None else _merged(num, den, -1)
    if a == b:
        return {a: 1}
    if b == 2 * a:
        # (q^a; q^2a) = (q^a; q^a) / (q^2a; q^2a)
        return {a: 1, b: -1}
    return None


def _merged(left: Etas, right: Etas, scale: int) -> Etas:
    out = dict(left)
    for b, a in right.items():
        out[b] = out.get(b, 0) + scale * a
    return {b: a for b, a in out.items() if a}


def _substituted(etas: Etas, k: int, sign: int) -> Etas:
    """The exponents of prod (q^b; q^b)^a under q -> sign * q^k."""
    out = {}
    for b, a in etas.items():
        if sign == -1 and b % 2:
            # (-q; -q)^b-odd = (q^2b; q^2b)^3 / ((q^b; q^b) (q^4b; q^4b))
            out = _merged(out, {b * k: -1, 2 * b * k: 3, 4 * b * k: -1}, a)
        else:
            out = _merged(out, {b * k: a}, 1)
    return out


@lru_cache(maxsize=None)
def product_form(fid: "partitions.FunctionId") -> Expr:
    """The parsed product form of a counting function, parsed once."""
    return parse(partitions.PRODUCT_FORMS[fid])


def normal_form(node: Expr) -> Optional[Etas]:
    """The expression as an eta quotient, or None if it is not one.

    Returns {b: a_b}, with no zero exponents, such that node ==
    prod_b (q^b; q^b)_oo^{a_b} at every order, when node is built from
    eta-type poch, gf and the constant 1 by product chains, "^" and subst
    alone; anything else in it (a theta sum, a polynomial, another
    constant, a sum chain, a poch such as (q; q^4)) makes the answer None.
    """
    if isinstance(node, Poch):
        return _poch_etas(node.sign, node.a, node.b)
    if isinstance(node, GfRef):
        return normal_form(product_form(node.fid))
    if isinstance(node, Subst):
        etas = normal_form(node.child)
        return None if etas is None else _substituted(etas, node.k, node.sign)
    if isinstance(node, Pow):
        etas = normal_form(node.child)
        return None if etas is None else _merged({}, etas, node.exponent)
    if isinstance(node, Chain) and not node.is_sum:
        etas, others = _merge(node.operands)
        return None if others else etas
    return {} if node == IntLit(1) else None


def _merge(factors) -> Tuple[Etas, list]:
    """The merged vector of the (op, factor) pairs of a product chain that
    have a normal form, and the pairs that have none, in order."""
    etas, others = {}, []
    for op, factor in factors:
        part = normal_form(factor)
        if part is None:
            others.append((op, factor))
        else:
            etas = _merged(etas, part, 1 if op == "*" else -1)
    return etas, others


def _walk(operands, order: int) -> Series:
    """The (op, operand) pairs of a chain, evaluated and combined left to
    right; a factor 1 multiplies nothing, so 1 / x is x's inverse alone."""
    value = None
    for op, operand in operands:
        if op in ("*", "/") and operand == IntLit(1):
            continue
        term = evaluate(operand, order)
        if op == "/":
            op, term = "*", term.inverse()
        value = term if value is None else _ARITH[op](value, term)
    return constant(1, order) if value is None else value


@lru_cache(maxsize=8)
def _eta_expansion(etas: Tuple[Tuple[int, int], ...], order: int) -> Series:
    """prod_b (q^b; q^b)_oo^{a_b} at `order`, for the sorted (b, a_b) pairs."""
    return eta_quotient(constant(1, order), dict(etas))


def evaluate(node: Expr, order: int) -> Series:
    """Evaluate a parsed expression to an exact Series at `order`.

    From order NEWTON_BASE on, the sparse eta kernels take an eta
    quotient as a whole (see normal_form), and the eta-quotient factors
    of a product chain: their vectors are merged and applied once, to the
    walked product of the other factors.  Everything else, and everything
    below NEWTON_BASE, is walked node by node, so errors and their
    messages are the walk's.

    A whole eta quotient is memoized, keyed on its sorted (b, a_b) pairs
    and the order, for the 8 vectors used last: the bundled manifest's 64
    such sides use 27 vectors per order and make 29 expansions (6 to 12
    entries save 35 of the 37 repeats, 16 save all).  An entry is the
    Series returned; at MAX_ORDER the largest bundled side's takes 16 MiB,
    so 8 such take about 130 MiB, against up to 64 series in
    partitions.gf_series, which shares the memo's objects, and 256 in
    pochhammer.  Series are immutable, so a hit is bit-identical.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order >= NEWTON_BASE:
        product = isinstance(node, Chain) and not node.is_sum
        factors = node.operands if product else (("*", node),)
        etas, others = _merge(factors)
        if not others:
            return _eta_expansion(tuple(sorted(etas.items())), order)
        if len(others) < len(factors):
            return eta_quotient(_walk(others, order), etas)
    if isinstance(node, IntLit):
        return constant(node.value, order)
    if isinstance(node, QPow):
        return q_power(node.k, order)
    if isinstance(node, Poch):
        return pochhammer(node.sign, node.a, node.b, order)
    if isinstance(node, GfRef):
        return partitions.gf_series(node.fid, order)
    if isinstance(node, Subst):
        return evaluate(node.child, order).substitute(node.k, node.sign)
    if isinstance(node, Chain):
        return _walk(node.operands, order)
    if isinstance(node, Pow):
        return evaluate(node.child, order).power(node.exponent)
    if isinstance(node, Neg):
        return -evaluate(node.child, order)
    if isinstance(node, Theta):
        weight, exponent = node.weight, node.exponent
        _check_exponent(exponent)
        return theta_series(
            node.domain, lambda n: _ieval(weight, n), lambda n: _ieval(exponent, n), order
        )
    raise TypeError(f"not a series expression: {node!r}")


def expand(text: str, order: int) -> Series:
    """Parse and evaluate in one step."""
    return evaluate(parse(text), order)


# The classical theta specializations.  phi and psi are the two standard
# theta functions; the pentagonal and Jacobi sums expand (q;q)_oo and its
# cube; the 6n+1 / 3n+1 sums are the Ramanujan product expansions;
# baruah_pent is the unsigned pentagonal sum; e1_series is the
# triple-product specialization sum (-1)^n q^{2n^2+n}.
NAMED_THETA = {
    "phi": "theta{n in Z}(1; n*n)",
    "psi": "theta{n in N}(1; (n*(n+1)) div 2)",
    "phi_neg": "theta{n in Z}((-1)^(n); n*n)",
    "psi_neg": "theta{n in N}((-1)^((n*(n+1)) div 2); (n*(n+1)) div 2)",
    "euler_pentagonal": "theta{n in Z}((-1)^(n); (n*(3*n+1)) div 2)",
    "jacobi_cube": "theta{n in N}((2*n+1)*(-1)^(n); (n*(n+1)) div 2)",
    "ram_6n1": "theta{n in Z}(6*n+1; (n*(3*n+1)) div 2)",
    "ram_3n1": "theta{n in Z}(3*n+1; 3*n*n+2*n)",
    "baruah_pent": "theta{n in Z}(1; (n*(3*n+1)) div 2)",
    "e1_series": "theta{n in Z}((-1)^(n); 2*n*n+n)",
}


def named_theta(name: str, order: int) -> Series:
    """Expand one of the named theta sums; unknown names are an error."""
    try:
        text = NAMED_THETA[name]
    except KeyError:
        known = ", ".join(sorted(NAMED_THETA))
        raise ValueError(f"unknown theta series {name!r}; known: {known}") from None
    return expand(text, order)


def check(
    lhs: Expr, rhs: Expr, order: int, modulus: Optional[int] = None
) -> Optional[Mismatch]:
    """Evaluate both sides at `order` (mod `modulus` if given) and compare."""
    a = evaluate(lhs, order)
    b = evaluate(rhs, order)
    if modulus is not None:
        a = a.reduce_mod(modulus)
        b = b.reduce_mod(modulus)
    return equal_upto(a, b, order)


# ----------------------------------------------------------------------
# pretty printer
# ----------------------------------------------------------------------
#
# Rendering mirrors the grammar's shape: expressions flatten their
# left-associative chains and parenthesize exactly where re-parsing
# would otherwise regroup, so parse(pretty(parse(s))) == parse(s).

def _as_base(node: Expr) -> str:
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, IVar):
        return node.name
    if isinstance(node, QPow):
        return f"q^{node.k}"
    if isinstance(node, Poch):
        minus = "-" if node.sign == -1 else ""
        return f"poch({minus}q^{node.a}, q^{node.b})"
    if isinstance(node, GfRef):
        return f"gf({node.fid.value})"
    if isinstance(node, Subst):
        minus = "-" if node.sign == -1 else ""
        return f"subst({pretty(node.child)}, {minus}q^{node.k})"
    if isinstance(node, Theta):
        return (
            f"theta{{{node.var} in {node.domain.value}}}"
            f"({pretty(node.weight)}; {pretty(node.exponent)})"
        )
    if isinstance(node, Neg):
        return "-" + _as_base(node.child)
    if isinstance(node, IFunc):
        return f"{node.name}({pretty(node.child)})"
    return "(" + pretty(node) + ")"


def _as_factor(node: Expr) -> str:
    if isinstance(node, Pow):
        return f"{_as_base(node.child)}^{node.exponent}"
    return _as_base(node)


def _as_term(node: Expr) -> str:
    if isinstance(node, Chain) and not node.is_sum:
        return _as_factor(node.first) + "".join(f" {op} {_as_factor(x)}" for op, x in node.rest)
    return _as_factor(node)


def pretty(node: Expr) -> str:
    """Canonical text for an AST; re-parsing gives back an identical tree."""
    if isinstance(node, Chain) and node.is_sum:
        return _as_term(node.first) + "".join(f" {op} {_as_term(x)}" for op, x in node.rest)
    return _as_term(node)
