"""A small expression language for q-series, so identities are data.

Grammar (whitespace-insensitive)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | base ("^" sint)?
    base   := INT | "q" "^" UINT | poch | theta | gfref | subst
            | "(" expr ")"
    poch   := "poch" "(" ("-")? "q" "^" UINT "," "q" "^" UINT ")"
    gfref  := "gf" "(" NAME ")"
    subst  := "subst" "(" expr "," ("-")? "q" "^" UINT ")"
    theta  := "theta" "{" NAME "in" ("Z"|"N") "}" "(" iexpr ";" iexpr ")"
    iexpr  := iterm (("+"|"-") iterm)*
    iterm  := ifact (("*") ifact | ("div") UINT)*
    ifact  := INT | NAME | "ceil2" "(" iexpr ")"
            | "(-1)" "^" "(" iexpr ")" | "(" iexpr ")"

"^" binds tightest, then unary minus, then "*" and "/" (left-
associative), then "+" and "-": "-2^2" is -(2^2) = -4, and "(-2)^2" is
4.  INT and UINT are ASCII digits 0-9 only.  A token is a run of such
digits, a word (a letter or "_", then letters, digits or "_") or one
symbol of -+*/^(){},; and only space, tab, CR and LF may separate
tokens.  One regular-expression pass (findall) gives the token texts
of the whole text, and the parser reads that list, a token's kind by
its first character; for ASCII text the pass is the lexer when its
tokens and whitespace add up to the text's length.  Other text, and an
error's offset, go through tokenize, which gives each token's kind and
offset and finds the first character that starts no token, or a word
that starts with no letter, such as "²".  The operators of one level,
in a theta body too, make one flat Chain node read left to right;
"div" is exact integer division and errors on any remainder, and
"ceil2" is the mathematical ceiling of half.  Parse errors carry the
character offset (a str index) of the offending token and the set of
tokens that would have been accepted.

A theta exponent must be, on each parity class n = 2m + r, a polynomial
in m of degree at most 2 and not a falling quadratic, since the theta
scan runs on each class on its own.  The evaluator that sums a theta
body also reads it on a class, when n is the polynomial 2m + r.

Text is untrusted, so nesting deeper than MAX_DEPTH levels is a parse
error: each bracket, unary minus, "subst", "theta", "ceil2" and "(-1)^"
opens one.  Chains are flat, so each level adds at most a sum, a product
and a power to the tree, and the parser, evaluator and printer, which
all recurse, stay inside Python's default recursion limit.

This is the one path from text to a Series, and it owns every name and
text it expands: the sixteen counting functions (:class:`FunctionId`),
each with its product form in :data:`PRODUCT_FORMS`, which gf(f)
stands for, and the named theta sums in :data:`NAMED_THETA`.

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
  through its product form;
* the (+-q^a; q^b) factors of one product chain that have no form of
  their own, each with a <= b, are read together by residue class:
  (q^a; q^b) is prod_n (1 - q^n)^c(n) with c(n) = [n = a mod b], and
  with the chain's signs c is summed on the common period M of the
  strides, at most MAX_PERIOD.  If c(n) depends on gcd(n, M) alone, the
  factors are the vector a_d = c(d) - sum_{e | d, e < d} a_e over the
  divisors d of M (S. Robins, Contemp. Math. 166, 1994), so
  (q; q^4) (q^3; q^4) is (q; q^2) = {1: 1, 2: -1}; otherwise they stay
  as they are;
* a theta sum whose exponent is A n^2 + B n, every div in it exact, and
  whose weight is +1 or -1 on each class n = 4m + r, is a Jacobi triple
  product f(a, b) = (-a; ab) (-b; ab) (ab; ab) when it is f(+-q^u, +-q^v)
  over Z, u = A + B >= 1 and v = A - B >= 1, read by the rule above, or
  psi(+-q^2A) over N with A = B; a weight (-1)^e(n) is q -> -q.

Anything else has no normal form: other theta sums (a weight such as
2n+1, an exponent with a ceil2, n^2 + n, which is f(q^2, 1), or one
that is constant), polynomials, other constants, sums, and a poch that
is no eta quotient, such as (q; q^4) alone.  The sparse eta kernels of
:mod:`podium.series` expand a whole eta quotient, through that module's memo, and apply the merged eta
factors of a product chain to the product of its other factors; the
rest is walked node by node, so errors and their messages are the
walk's.  Below order NEWTON_BASE (32), the series layer's own switch
between small and large orders, all of it is walked; the kernels gain
nothing measurable there.
"""

from __future__ import annotations

import enum
import math
import operator
import re
from functools import lru_cache
from itertools import zip_longest
from typing import Dict, Optional, Tuple, Union

from ._value import Value
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
    """Syntax error with the character offset and the expected-token set."""

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

class IntLit(Value):
    __slots__ = ("value",)


class QPow(Value):
    __slots__ = ("k",)


class Poch(Value):
    __slots__ = ("sign", "a", "b")


class GfRef(Value):
    __slots__ = ("fid",)


class Subst(Value):
    __slots__ = ("child", "k", "sign")


class Chain(Value):
    """first op x op x ..., left to right, all ops of one level: + and -,
    * and /, or in a theta body * and div, whose operand is an IntLit."""

    __slots__ = ("first", "rest")

    @property
    def is_sum(self) -> bool:
        return self.rest[0][0] in ("+", "-")

    @property
    def operands(self) -> Tuple[Tuple[str, "Expr"], ...]:
        """Every (op, operand) pair, the first operand's op "+" or "*"."""
        return (("+" if self.is_sum else "*", self.first),) + self.rest


class Pow(Value):
    __slots__ = ("child", "exponent")


class Neg(Value):
    __slots__ = ("child",)


class IVar(Value):
    __slots__ = ("name",)


class IFunc(Value):
    """ceil2(child), the ceiling of half, or (-1)^(child), by name."""

    __slots__ = ("name", "child")


class Theta(Value):
    __slots__ = ("domain", "var", "weight", "exponent")


IExpr = Union[IntLit, IVar, Chain, IFunc]
Expr = Union[IntLit, QPow, Poch, GfRef, Subst, Chain, Pow, Neg, Theta]


# ----------------------------------------------------------------------
# lexer
# ----------------------------------------------------------------------

# Whitespace, then an ASCII integer, a word, a symbol or the end of the
# text, which is the empty token.  findall skips what matches nowhere.
_TOKEN = re.compile(r"[ \t\r\n]*([0-9]+|\w+|[-+*/^(){},;]|\Z)")
_KINDS = {"": "end", **dict.fromkeys("0123456789", "int"), **dict.fromkeys("-+*/^(){},;", "sym")}


def _kind(word: str) -> Optional[str]:
    """A token's kind by its first character, or None for a word that
    starts with no letter or "_", such as "²"."""
    first = word[:1]
    return "name" if first.isalpha() or first == "_" else _KINDS.get(first)


def tokenize(text: str) -> list:
    """Every token as (kind, text, offset), ending with ("end", "",
    len(text)); text that is no token's is a ParseError at its offset."""
    tokens, pos = [], 0
    for match in _TOKEN.finditer(text):
        kind = _kind(match[1])
        if match.start() > pos or kind is None:  # skipped text, or a word such as "²"
            break
        tokens.append((kind, match[1], match.start(1)))
        pos = match.end()
        if kind == "end":
            return tokens
    pos = len(text) - len(text[pos:].lstrip(" \t\r\n"))
    raise ParseError(f"unexpected character {text[pos]!r}", pos)


def _lex(text: str) -> list:
    """The token texts, the last one "", the end of input.  ASCII text is
    lexed when its tokens and whitespace add up to its length; tokenize
    lexes any other text and finds its bad character."""
    if text.isascii():
        words = _TOKEN.findall(text)
        spaces = text.count(" ") + text.count("\n") + text.count("\t") + text.count("\r")
        if sum(map(len, words)) + spaces == len(text):
            return words
    return [word for _, word, _ in tokenize(text)]


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

class _Parser:
    # `t` holds the token texts and `i` indexes the next one; a token's
    # kind is read from its text, and its offset only for an error.
    # `nesting` counts the levels still open, so deep text is refused on
    # the way down, before the parser's own recursion is deep.

    def __init__(self, text: str):
        self.text = text
        self.t = _lex(text)
        self.i = 0
        self.nesting = 0
        self.var = ""  # the theta variable, while a theta body is parsed

    def offset(self, i: int) -> int:
        return tokenize(self.text)[i][2]

    def nested(self, at: int, parse, close: str = ""):
        """Run `parse` one level inside the construct opened at token `at`,
        then expect `close` if given; past MAX_DEPTH levels is an error at
        `at`."""
        if self.nesting == MAX_DEPTH:
            raise ParseError(f"expression deeper than {MAX_DEPTH} levels", self.offset(at))
        self.nesting += 1
        node = parse()
        self.nesting -= 1
        if close:
            self.expect(close)
        return node

    def fail(self, expected: Tuple[str, ...]):
        tok = self.t[self.i]
        got = repr(tok) if tok else "end of input"
        raise ParseError(f"unexpected {got}", self.offset(self.i), expected)

    def expect(self, text: str) -> None:
        if self.t[self.i] != text:
            self.fail((repr(text),))
        self.i += 1

    def sign(self) -> int:
        """-1 after an optional "-", which is consumed, else 1."""
        if self.t[self.i] == "-":
            self.i += 1
            return -1
        return 1

    def expect_int(self, minimum: int = 0) -> int:
        tok = self.t[self.i]
        if not tok.isdigit():
            self.fail(("integer",))
        try:
            value = int(tok)
        except ValueError:  # past the interpreter's limit on digits per int
            raise ParseError("integer literal too long", self.offset(self.i)) from None
        if value < minimum:
            raise ParseError(f"integer must be >= {minimum}", self.offset(self.i))
        self.i += 1
        return value

    def expect_q_power(self) -> int:
        self.expect("q")
        self.expect("^")
        return self.expect_int(1)

    def chain(self, operand, ops: Tuple[str, str]) -> Expr:
        """Parse `operand (op operand)*` for the op texts `ops` as one Chain,
        or the lone operand; the operand of "div" is an IntLit.  A first
        operand that is a bracketed chain of the same level is spliced in,
        so "(a - b) - c" gives the tree of "a - b - c", as it reads."""
        first = operand()
        t = self.t
        if t[self.i] not in ops:
            return first
        rest = []
        while t[self.i] in ops:
            op = t[self.i]
            self.i += 1
            rest.append((op, IntLit(self.expect_int(1)) if op == "div" else operand()))
        if isinstance(first, Chain) and first.rest[0][0] in ops:
            return Chain(first.first, first.rest + tuple(rest))
        return Chain(first, tuple(rest))

    # ---- series expressions ----

    def parse_expr(self) -> Expr:
        return self.chain(self.parse_term, ("+", "-"))

    def parse_term(self) -> Expr:
        return self.chain(self.parse_factor, ("*", "/"))

    def parse_factor(self) -> Expr:
        if self.t[self.i] == "-":
            self.i += 1
            return Neg(self.nested(self.i - 1, self.parse_factor))
        node = self.parse_base()
        if self.t[self.i] == "^":
            self.i += 1
            node = Pow(node, self.sign() * self.expect_int())
        return node

    def parse_base(self) -> Expr:
        tok = self.t[self.i]
        if tok == "(":
            self.i += 1
            return self.nested(self.i - 1, self.parse_expr, ")")
        if tok == "q":
            return QPow(self.expect_q_power())
        if tok == "poch":
            self.i += 1
            self.expect("(")
            sign = self.sign()
            a = self.expect_q_power()
            self.expect(",")
            b = self.expect_q_power()
            self.expect(")")
            return Poch(sign, a, b)
        if tok == "gf":
            return self.parse_gfref()
        if tok == "subst":
            return self.parse_subst()
        if tok == "theta":
            return self.parse_theta()
        if tok.isdigit():
            return IntLit(self.expect_int())
        self.fail(("integer", "'q'", "'poch'", "'gf'", "'subst'", "'theta'", "'('", "'-'"))

    def parse_gfref(self) -> Expr:
        self.i += 1
        self.expect("(")
        tok = self.t[self.i]
        if _kind(tok) != "name":
            self.fail(("function name",))
        fid = _FUNCTIONS.get(tok)
        if fid is None:
            known = ", ".join(_FUNCTIONS)
            raise ParseError(f"unknown gf name {tok!r}", self.offset(self.i), (known,))
        self.i += 1
        self.expect(")")
        return GfRef(fid)

    def parse_subst(self) -> Expr:
        at = self.i
        self.i += 1
        self.expect("(")
        child = self.nested(at, self.parse_expr, ",")
        sign = self.sign()
        k = self.expect_q_power()
        self.expect(")")
        return Subst(child, k, sign)

    def parse_theta(self) -> Expr:
        at = self.i
        self.i += 1
        self.expect("{")
        var = self.t[self.i]
        if _kind(var) != "name":
            self.fail(("variable name",))
        self.i += 1
        self.expect("in")
        if self.t[self.i] not in ("Z", "N"):
            self.fail(("'Z'", "'N'"))
        domain = Domain(self.t[self.i])
        self.i += 1
        self.expect("}")
        self.expect("(")
        self.var = var
        weight = self.nested(at, self.parse_iexpr, ";")
        exponent = self.nested(at, self.parse_iexpr, ")")
        return Theta(domain, var, weight, exponent)

    # ---- integer expressions inside theta, in the variable self.var ----

    def parse_iexpr(self) -> IExpr:
        return self.chain(self.parse_iterm, ("+", "-"))

    def parse_iterm(self) -> IExpr:
        return self.chain(self.parse_ifact, ("*", "div"))

    def parse_ifact(self) -> IExpr:
        at = self.i
        tok = self.t[at]
        kind = _kind(tok)
        if kind == "int":
            return IntLit(self.expect_int())
        if kind == "name" and tok != "ceil2":
            if tok != self.var:
                raise ParseError(f"unbound variable {tok!r}", self.offset(at), (repr(self.var),))
            self.i += 1
            return IVar(tok)
        if tok not in ("ceil2", "("):
            self.fail(("integer", "variable", "'ceil2'", "'(-1)'", "'('"))
        self.i += 1
        if tok == "(":
            if self.t[self.i] != "-":
                return self.nested(at, self.parse_iexpr, ")")
            # "(-1)^(...)" is the only construct that may open with "(-"
            self.i += 1
            if self.t[self.i] != "1":
                raise ParseError("only (-1)^(...) may begin with '(-'", self.offset(self.i - 1))
            self.i += 1
            self.expect(")")
            self.expect("^")
        self.expect("(")
        name = "ceil2" if tok == "ceil2" else "(-1)^"
        return IFunc(name, self.nested(at, self.parse_iexpr, ")"))


def parse(text: str) -> Expr:
    """Parse a series expression; raises ParseError with a character offset."""
    parser = _Parser(text)
    node = parser.parse_expr()
    tok = parser.t[parser.i]
    if tok:
        raise ParseError(f"unexpected trailing {tok!r}", parser.offset(parser.i), ("end of input",))
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
    """A theta body on the class n = s*m + r, as sum_i c[i] m^i / d, d >= 1.

    _ieval runs on it as on an int, with n = _OnClass([r, s], 1, r, s).
    "div" and "//" divide exactly: ceil2 halves only even values, and the
    scan finds an inexact div.  `exact` says whether every div that made
    the value is an integer at every m; past degree 2 that is not checked,
    and reads False.  "% 2" is the parity, fixed on the class or an
    EvalError: m^i and m have one parity, so with integer coefficients a
    it is that of a[0] + m*sum(a[1:]).  A product past 2^16 bits is refused.
    """

    def __init__(self, c: list, d: int, r: int, stride: int = 2, exact: bool = True):
        self.c, self.d, self.r, self.stride, self.exact = c, d, r, stride, exact

    def _new(self, c: list, d: int, exact: bool) -> "_OnClass":
        return _OnClass(c, d, self.r, self.stride, exact)

    def _lift(self, x) -> "_OnClass":
        return x if isinstance(x, _OnClass) else self._new([x], 1, True)

    def _plus(self, x: "_OnClass", sign: int) -> "_OnClass":
        c = [u * x.d + sign * v * self.d for u, v in zip_longest(self.c, x.c, fillvalue=0)]
        return self._new(c, self.d * x.d, self.exact and x.exact)

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
        return self._new(out, d, self.exact and x.exact)

    def __floordiv__(self, k: int) -> "_OnClass":
        return self._new(self.c, self.d * k, self.exact)

    def __divmod__(self, k: int):
        # an integer-valued polynomial of degree <= 2 is one at m = 0, 1, 2
        c, d = self.c, self.d * k
        exact = self.exact and not any(c[3:]) and all(
            sum(u * m**i for i, u in enumerate(c)) % d == 0 for m in (0, 1, 2))
        return self._new(c, d, exact), 0

    def __mod__(self, two: int) -> "_OnClass":
        if any(u % self.d for u in self.c) or sum(self.c[1:]) // self.d % 2:
            why = "cannot fix a ceil2 or (-1)^ argument's parity"
            raise EvalError(f"theta exponent: {why} on n = {self.stride}m + {self.r}")
        return self._new([self.c[0] // self.d % 2], 1, self.exact)

    __radd__, __rmul__ = __add__, __mul__


@lru_cache(maxsize=256)
def _read(node: IExpr, stride: int) -> tuple:
    """A theta body read by _ieval on each class n = stride*m + r, in
    order of r, as (classes, exact, error).  `classes` holds each class's
    (c, d), c without trailing zeros, up to the first class whose reading
    raises an EvalError; `error` is that error's message, else None;
    `exact` says whether every div is an integer on every class.  Cached,
    so the walk's exponent check and the lowering of a theta read a body
    once.
    """
    classes, exact = [], True
    for r in range(stride):
        try:
            x = _OnClass([0], 1, r, stride) + _ieval(node, _OnClass([r, stride], 1, r, stride))
        except EvalError as exc:
            return tuple(classes), False, str(exc)
        c = x.c
        while c and not c[-1]:
            c = c[:-1]
        classes.append((tuple(c), x.d))
        exact = exact and x.exact
    return tuple(classes), exact, None


def _check_exponent(exponent: IExpr) -> None:
    """Refuse a theta exponent that the scan would sum wrongly.

    The scan in podium.theta runs over each parity class n = 2m + r on its
    own and stops at the first exponent above the order that is not below
    the one before; that is exact only if the exponent never turns
    downward on its class after it.  The exponent is read on each class as
    a polynomial in m by _ieval itself, the evaluation that the scan sums
    (see _OnClass and _read).  A quadratic with a positive leading
    coefficient never turns downward; a falling line is refused by the
    scan when it turns negative, and a constant at or below the order when
    the scan runs out.  A falling quadratic or any higher degree is
    refused here.
    """
    classes, _, error = _read(exponent, 2)
    for c, _ in classes:
        if len(c) > 3:
            raise EvalError(f"theta exponent has degree {len(c) - 1}; it must be at most 2")
        if len(c) == 3 and c[2] < 0:
            raise EvalError("theta exponent is a quadratic that falls without bound")
    if error is not None:
        raise EvalError(error)


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
def product_form(fid: FunctionId) -> Expr:
    """The parsed product form of a counting function, parsed once."""
    return parse(PRODUCT_FORMS[fid])


def normal_form(node: Expr) -> Optional[Etas]:
    """The expression as an eta quotient, or None if it is not one.

    Returns {b: a_b}, with no zero exponents, such that node ==
    prod_b (q^b; q^b)_oo^{a_b} at every order, when node is built from
    eta-type poch, gf, theta sums that are Jacobi triple products
    (_theta_etas) and the constant 1 by product chains, "^" and subst
    alone; anything else in it (another theta sum, a polynomial, another
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
    if isinstance(node, Theta):
        etas = _theta_etas(node)
        return None if etas is None else dict(etas)
    return {} if node == IntLit(1) else None


# _residue_etas reads (+-q^a; q^b) factors on the common period of their
# strides only up to this period, so that a chain whose strides have a
# large lcm, such as poch(q^1, q^99991) * poch(q^1, q^99989), is walked at
# once.
MAX_PERIOD = 64


def _residue_etas(pochs) -> Optional[Etas]:
    """The (op, Poch) pairs of a product chain, each with a <= b, as one
    eta vector, or None if their product is not an eta quotient.

    (q^a; q^b) is prod_n (1 - q^n)^c(n) with c(n) = [n = a mod b], and
    (-q^a; q^b) = (q^2a; q^2b) / (q^a; q^b).  Summed with the chain's
    signs on the common period M of the strides, c is
    prod_{d | M} (q^d; q^d)^{a_d} exactly when c(n) depends on gcd(n, M)
    alone, with a_d = c(d) - sum_{e | d, e < d} a_e (S. Robins,
    Generalized Dedekind eta-products, Contemp. Math. 166, 1994).
    """
    period = 1
    for _, poch in pochs:
        period = math.lcm(period, poch.b if poch.sign == 1 else 2 * poch.b)
        if period > MAX_PERIOD:
            return None
    c = [0] * (period + 1)  # c[n] for n in 1..M; c[M] is the class of 0
    for op, poch in pochs:
        sign = 1 if op == "*" else -1
        parts = [(poch.a, poch.b, sign)]
        if poch.sign == -1:
            parts = [(2 * poch.a, 2 * poch.b, sign), (poch.a, poch.b, -sign)]
        for a, b, s in parts:
            for n in range(a, period + 1, b):
                c[n] += s
    if any(c[n] != c[math.gcd(n, period)] for n in range(1, period)):
        return None
    etas = {}
    for d in range(1, period + 1):
        if period % d == 0:
            etas[d] = c[d] - sum(a for e, a in etas.items() if d % e == 0)
    return {d: a for d, a in etas.items() if a}


def _quadratic(classes: tuple) -> Optional[Tuple[int, int]]:
    """(S, D) if an exponent read on both classes n = 2m + r (see _read)
    is (S n^2 + D n) / 2, else None."""
    if any(len(c) > 3 for c, _ in classes):
        return None
    classes = [(c + (0,) * (3 - len(c)), d) for c, d in classes]
    (_, c1, c2), d = classes[0]
    if c2 % (2 * d) or c1 % d:
        return None
    s, t = c2 // (2 * d), c1 // d
    for r, (c, d) in enumerate(classes):
        # 2 e(2m + r) = S (2m + r)^2 + D (2m + r), as a polynomial in m
        if [2 * u for u in c] != [w * d for w in (s * r * r + t * r, 4 * s * r + 2 * t, 4 * s)]:
            return None
    return s, t


@lru_cache(maxsize=256)
def _theta_etas(node: Theta) -> Optional[Etas]:
    """A theta sum as an eta quotient, or None if it is not read as one.

    The exponent must be e(n) = A n^2 + B n, read as _check_exponent
    reads it, on n = 2m + r, with every div exact; the weight must be +1
    or -1 on each class n = 4m + r.  By the Jacobi triple product
    f(a, b) = (-a; ab) (-b; ab) (ab; ab) (B. C. Berndt, Ramanujan's
    Notebooks III, Ch. 16, Entries 19 and 22):

    * over Z, with u = A + B >= 1 and v = A - B >= 1, the weight 1 gives
      f(q^u, q^v) and (-1)^n gives f(-q^u, -q^v): f(+-q^u', +-q^v') under
      q -> q^g, g = gcd(u, v), with its three factors read by _residue_etas;
    * over N, with A = B, the weight 1 gives psi(q^2A) and (-1)^(n(n+1)/2)
      gives psi(-q^2A), psi(q) being (q^2; q^2)^2 / (q; q);

    and either times the weight (-1)^e(n) is the same sum under q -> -q.
    Anything else is None.  A theta that the walk refuses has an inexact
    div or a reading error, so it is never lowered, and its error stays
    the walk's.
    """
    classes, exact, error = _read(node.exponent, 2)
    found = _quadratic(classes) if exact and error is None else None
    if found is None:
        return None
    s, t = found  # e(n) = (s n^2 + t n) / 2, an integer at every n
    u, v = (s + t) // 2, (s - t) // 2
    over_z = node.domain is Domain.ALL_INTEGERS
    if u < 1 or (v < 1 if over_z else v != 0):
        return None
    classes, exact, error = _read(node.weight, 4)
    if not exact or error is not None:
        return None
    signs = tuple(c[0] // d if len(c) == 1 and abs(c[0]) == d else 0 for c, d in classes)
    for sign, flip in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        # sign^n over Z or sign^(n(n+1)/2) over N, times flip^e(n)
        want = tuple(sign ** (r if over_z else r * (r + 1) // 2) * flip ** ((s * r * r + t * r) // 2)
                     for r in range(4))
        if signs != want:
            continue
        if not over_z:
            etas = _substituted({1: -1, 2: 2}, u, sign)
        else:
            g = math.gcd(u, v)
            a, b = u // g, v // g
            triple = (Poch(-sign, a, a + b), Poch(-sign, b, a + b), Poch(1, a + b, a + b))
            etas = _residue_etas([("*", poch) for poch in triple])
            if etas is None:
                return None
            etas = _substituted(etas, g, 1)
        return etas if flip == 1 else _substituted(etas, 1, -1)
    return None


def _merge(factors) -> Tuple[Etas, list]:
    """The merged vector of the (op, factor) pairs of a product chain that
    have a normal form, and the pairs that have none, in order.  The
    (+-q^a; q^b) factors with no form of their own and a <= b join the
    vector too when together they are an eta quotient (_residue_etas)."""
    etas, others = {}, []
    for op, factor in factors:
        part = normal_form(factor)
        if part is None:
            others.append((op, factor))
        else:
            etas = _merged(etas, part, 1 if op == "*" else -1)
    pochs, rest = [], []
    for pair in others:
        factor = pair[1]
        (pochs if isinstance(factor, Poch) and factor.a <= factor.b else rest).append(pair)
    part = _residue_etas(pochs) if pochs else None
    if part is None:
        return etas, others
    return _merged(etas, part, 1), rest


def _walk(operands, order: int) -> Series:
    """The (op, operand) pairs of a chain, evaluated and combined left to
    right.  A constant factor is a scale in the series product, so 1 / x
    is x's inverse and one O(N) scale, with no dense product."""
    value = None
    for op, operand in operands:
        term = evaluate(operand, order)
        if op == "/":
            op, term = "*", term.inverse()
        value = term if value is None else _ARITH[op](value, term)
    return value


def evaluate(node: Expr, order: int) -> Series:
    """Evaluate a parsed expression to an exact Series at `order`.

    From order NEWTON_BASE on, the sparse eta kernels take an eta
    quotient as a whole (see normal_form), and the eta-quotient factors
    of a product chain: their vectors are merged and applied once, to the
    walked product of the other factors.  A theta sum that is a Jacobi
    triple product is such a factor, so gf(pod) times psi(q) is one
    vector; a theta is lowered only where its walk could not fail.
    Everything else, and everything below NEWTON_BASE, is walked node by
    node, and a walked theta is summed term by term by
    podium.theta.theta_series, so errors and their messages are the
    walk's.

    gf(f) is its product form, evaluated here like any other text; it
    has no cache of its own.  A whole eta quotient is expanded on a base
    of 1 by series.eta_quotient, whose memo keeps one entry per plan at
    the highest order expanded, bounded by series.ETA_MEMO_BYTES: the
    bundled manifest's sides use 27 vectors, at any number of orders, and
    a vector that another side has expanded at this order or a higher
    one, or a plan prefix of it, is not expanded again.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order >= NEWTON_BASE:
        product = isinstance(node, Chain) and not node.is_sum
        factors = node.operands if product else (("*", node),)
        etas, others = _merge(factors)
        if not others:
            return eta_quotient(etas, order)
        if len(others) < len(factors):
            return eta_quotient(etas, order, _walk(others, order))
    if isinstance(node, IntLit):
        return constant(node.value, order)
    if isinstance(node, QPow):
        return q_power(node.k, order)
    if isinstance(node, Poch):
        return pochhammer(node.sign, node.a, node.b, order)
    if isinstance(node, GfRef):
        return evaluate(product_form(node.fid), order)
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


class FunctionId(enum.Enum):
    """The sixteen counting functions; values are the CLI-facing names."""

    P = "p"            # unrestricted partitions
    POD = "pod"        # odd parts distinct
    PED = "ped"        # even parts distinct
    QDIST = "qdist"    # all parts distinct
    QODD = "qodd"      # distinct odd parts only
    PEO = "peo"        # (-1)^{#parts} over all partitions
    QEO = "qeo"        # (-1)^{#odd parts} over distinct-part partitions
    OPBAR = "opbar"    # overpartitions
    OPODD = "opodd"    # overpartitions into odd parts
    AFUN = "afun"      # (-1)^{#parts} over 2-colored-even partitions
    CUBIC = "cubic"    # even parts in two colors
    P3 = "p3"          # all parts in three colors
    P2MOD4 = "p2mod4"  # parts congruent to 2 mod 4
    QODD3 = "qodd3"    # distinct odd parts in three colors
    EO = "eo"          # every even part below every odd part
    EOBAR = "eobar"    # EO, odd multiplicity only at the largest even part

    @classmethod
    def from_name(cls, name: str) -> FunctionId:
        try:
            return cls(name)
        except ValueError:
            known = ", ".join(f.value for f in cls)
            raise ValueError(f"unknown function {name!r}; known: {known}") from None


_FUNCTIONS = {fid.value: fid for fid in FunctionId}  # gf(f)'s names, for the parser


# One product form per counting function, the text gf(f) stands for.
# POD's other classical quotients are verified as manifest identities, not
# used as alternates.  EO's (1 - q) is a plain two-term polynomial; dividing
# by it and then by (q^2; q^2) in one flat chain lets the eta planner apply
# (q^2; q^2) to it as it does every other form's factors.

PRODUCT_FORMS = {
    FunctionId.P: "1 / poch(q^1, q^1)",
    FunctionId.POD: "poch(q^2, q^2) / (poch(q^1, q^1) * poch(q^4, q^4))",
    FunctionId.PED: "poch(q^4, q^4) / poch(q^1, q^1)",
    FunctionId.QDIST: "poch(-q^1, q^1)",
    FunctionId.QODD: "poch(-q^1, q^2)",
    FunctionId.PEO: "1 / poch(-q^1, q^1)",
    FunctionId.QEO: "1 / poch(-q^1, q^2)",
    FunctionId.OPBAR: "poch(q^2, q^2) * poch(q^1, q^1)^-2",
    FunctionId.OPODD: "poch(q^2, q^2)^3 / (poch(q^1, q^1)^2 * poch(q^4, q^4))",
    FunctionId.AFUN: "poch(q^1, q^1) / poch(q^4, q^4)",
    FunctionId.CUBIC: "1 / (poch(q^1, q^1) * poch(q^2, q^2))",
    FunctionId.P3: "poch(q^1, q^1)^-3",
    FunctionId.P2MOD4: "1 / poch(q^2, q^4)",
    FunctionId.QODD3: "poch(-q^1, q^2)^3",
    FunctionId.EO: "1 / (1 - q^1) / poch(q^2, q^2)",
    FunctionId.EOBAR: "poch(q^4, q^4)^3 * poch(q^2, q^2)^-2",
}


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
    if isinstance(node, IFunc):
        return f"{node.name}({pretty(node.child)})"
    return "(" + pretty(node) + ")"


def _as_factor(node: Expr) -> str:
    if isinstance(node, Neg):
        return "-" + _as_factor(node.child)
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
