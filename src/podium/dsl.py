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
"-".  Unary minus binds tighter than "*".  Inside a theta body, "div" is
exact integer division and errors on any remainder, and "ceil2" is the
mathematical ceiling of half.  Parse errors carry the byte offset of the
offending token and the set of tokens that would have been accepted.

Text is untrusted, so a tree deeper than MAX_DEPTH levels is a parse
error: each operator, "^", unary minus, bracket, "subst", "theta", "ceil2"
and "(-1)^" adds one.  That keeps the parser, evaluator and printer, which
all recurse, inside Python's default recursion limit.

This is the one path from text to a Series: the counting functions'
product forms and the named theta sums are text evaluated here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from . import partitions  # read at call time: partitions imports this module
from .series import Mismatch, Series, constant, equal_upto, pochhammer, q_power
from .theta import Domain, ceil_half, theta_series

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
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    child: "Expr"
    exponent: int


@dataclass(frozen=True)
class Neg:
    child: "Expr"


@dataclass(frozen=True)
class IInt:
    value: int


@dataclass(frozen=True)
class IVar:
    name: str


@dataclass(frozen=True)
class IAdd:
    left: "IExpr"
    right: "IExpr"


@dataclass(frozen=True)
class ISub:
    left: "IExpr"
    right: "IExpr"


@dataclass(frozen=True)
class IMul:
    left: "IExpr"
    right: "IExpr"


@dataclass(frozen=True)
class IDiv:
    child: "IExpr"
    divisor: int


@dataclass(frozen=True)
class ICeil2:
    child: "IExpr"


@dataclass(frozen=True)
class ISignPow:
    child: "IExpr"


@dataclass(frozen=True)
class Theta:
    domain: Domain
    var: str
    weight: "IExpr"
    exponent: "IExpr"


IExpr = Union[IInt, IVar, IAdd, ISub, IMul, IDiv, ICeil2, ISignPow]
Expr = Union[IntLit, QPow, Poch, GfRef, Subst, Add, Sub, Mul, Div, Pow, Neg, Theta]


# ----------------------------------------------------------------------
# lexer
# ----------------------------------------------------------------------

_SYMBOLS = set("+-*/^(){},;")


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "name" | "sym" | "end"
    text: str
    offset: int


def tokenize(text: str) -> list:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
        if ch in _SYMBOLS:
            tokens.append(Token("sym", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token("end", "", n))
    return tokens


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

class _Parser:
    # `height` is the height of the tree the last parse_* call returned
    # (leaves 0); `nesting` counts the levels still open, so deep text is
    # refused on the way down, before the parser's own recursion is deep.

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.nesting = 0
        self.height = 0

    def deeper(self, tok: Token, *levels: int) -> int:
        """One above the highest of `levels`; past MAX_DEPTH is an error at `tok`."""
        level = max(levels) + 1
        if level > MAX_DEPTH:
            raise ParseError(f"expression deeper than {MAX_DEPTH} levels", tok.offset)
        return level

    def nested(self, tok: Token, parse):
        """Run `parse` one level inside the construct opened at `tok`."""
        self.nesting = self.deeper(tok, self.nesting)
        node = parse()
        self.nesting -= 1
        self.height = self.deeper(tok, self.height)
        return node

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_sym(self, *texts) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text in texts

    def at_name(self, *texts) -> bool:
        tok = self.peek()
        return tok.kind == "name" and (not texts or tok.text in texts)

    def fail(self, expected: Tuple[str, ...]):
        tok = self.peek()
        got = repr(tok.text) if tok.kind != "end" else "end of input"
        raise ParseError(f"unexpected {got}", tok.offset, expected)

    def expect_sym(self, text: str) -> Token:
        if not self.at_sym(text):
            self.fail((repr(text),))
        return self.advance()

    def expect_name(self, text: str) -> Token:
        if not self.at_name(text):
            self.fail((repr(text),))
        return self.advance()

    def expect_int(self, minimum: int = 0) -> int:
        tok = self.peek()
        if tok.kind != "int":
            self.fail(("integer",))
        value = int(tok.text)
        if value < minimum:
            raise ParseError(f"integer must be >= {minimum}", tok.offset)
        self.advance()
        return value

    def expect_q_power(self, minimum: int = 1) -> int:
        self.expect_name("q")
        self.expect_sym("^")
        return self.expect_int(minimum)

    # ---- series expressions ----

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.at_sym("+", "-"):
            left, op = self.height, self.advance()
            rhs = self.parse_term()
            self.height = self.deeper(op, left, self.height)
            node = Add(node, rhs) if op.text == "+" else Sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.at_sym("*", "/"):
            left, op = self.height, self.advance()
            rhs = self.parse_factor()
            self.height = self.deeper(op, left, self.height)
            node = Mul(node, rhs) if op.text == "*" else Div(node, rhs)
        return node

    def parse_factor(self) -> Expr:
        node = self.parse_base()
        if self.at_sym("^"):
            self.height = self.deeper(self.advance(), self.height)
            negative = False
            if self.at_sym("-"):
                self.advance()
                negative = True
            k = self.expect_int()
            node = Pow(node, -k if negative else k)
        return node

    def parse_base(self) -> Expr:
        tok = self.peek()
        self.height = 0
        if tok.kind == "int":
            return IntLit(self.expect_int())
        if self.at_sym("-"):
            return Neg(self.nested(self.advance(), self.parse_base))
        if self.at_sym("("):
            node = self.nested(self.advance(), self.parse_expr)
            self.expect_sym(")")
            return node
        if self.at_name("q"):
            return QPow(self.expect_q_power())
        if self.at_name("poch"):
            return self.parse_poch()
        if self.at_name("gf"):
            return self.parse_gfref()
        if self.at_name("subst"):
            return self.parse_subst()
        if self.at_name("theta"):
            return self.parse_theta()
        self.fail(("integer", "'q'", "'poch'", "'gf'", "'subst'", "'theta'", "'('", "'-'"))

    def parse_poch(self) -> Expr:
        self.expect_name("poch")
        self.expect_sym("(")
        sign = 1
        if self.at_sym("-"):
            self.advance()
            sign = -1
        a = self.expect_q_power()
        self.expect_sym(",")
        b = self.expect_q_power()
        self.expect_sym(")")
        return Poch(sign, a, b)

    def parse_gfref(self) -> Expr:
        self.expect_name("gf")
        self.expect_sym("(")
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
        self.expect_sym(")")
        return GfRef(fid)

    def parse_subst(self) -> Expr:
        tok = self.expect_name("subst")
        self.expect_sym("(")
        child = self.nested(tok, self.parse_expr)
        self.expect_sym(",")
        sign = 1
        if self.at_sym("-"):
            self.advance()
            sign = -1
        k = self.expect_q_power()
        self.expect_sym(")")
        return Subst(child, k, sign)

    def parse_theta(self) -> Expr:
        theta = self.expect_name("theta")
        self.expect_sym("{")
        tok = self.peek()
        if tok.kind != "name":
            self.fail(("variable name",))
        var = self.advance().text
        self.expect_name("in")
        if not self.at_name("Z", "N"):
            self.fail(("'Z'", "'N'"))
        domain = Domain(self.advance().text)
        self.expect_sym("}")
        self.expect_sym("(")
        weight = self.nested(theta, lambda: self.parse_iexpr(var))
        weight_height = self.height
        self.expect_sym(";")
        exponent = self.nested(theta, lambda: self.parse_iexpr(var))
        self.height = max(weight_height, self.height)
        self.expect_sym(")")
        return Theta(domain, var, weight, exponent)

    # ---- integer expressions inside theta ----

    def parse_iexpr(self, var: str) -> IExpr:
        node = self.parse_iterm(var)
        while self.at_sym("+", "-"):
            left, op = self.height, self.advance()
            rhs = self.parse_iterm(var)
            self.height = self.deeper(op, left, self.height)
            node = IAdd(node, rhs) if op.text == "+" else ISub(node, rhs)
        return node

    def parse_iterm(self, var: str) -> IExpr:
        node = self.parse_ifact(var)
        while True:
            left = self.height
            if self.at_sym("*"):
                op = self.advance()
                node = IMul(node, self.parse_ifact(var))
                self.height = self.deeper(op, left, self.height)
            elif self.at_name("div"):
                self.height = self.deeper(self.advance(), left)
                node = IDiv(node, self.expect_int(1))
            else:
                return node

    def parse_ifact(self, var: str) -> IExpr:
        tok = self.peek()
        self.height = 0
        if tok.kind == "int":
            return IInt(self.expect_int())
        if self.at_name("ceil2"):
            self.advance()
            self.expect_sym("(")
            node = self.nested(tok, lambda: self.parse_iexpr(var))
            self.expect_sym(")")
            return ICeil2(node)
        if tok.kind == "name":
            if tok.text != var:
                raise ParseError(
                    f"unbound variable {tok.text!r}", tok.offset, (repr(var),)
                )
            self.advance()
            return IVar(tok.text)
        if self.at_sym("("):
            # "(-1)^(...)" is the only construct that may open with "(-"
            self.advance()
            if self.at_sym("-"):
                minus = self.advance()
                one = self.peek()
                if one.kind != "int" or one.text != "1":
                    raise ParseError("only (-1)^(...) may begin with '(-'", minus.offset)
                self.advance()
                self.expect_sym(")")
                self.expect_sym("^")
                self.expect_sym("(")
                node = self.nested(tok, lambda: self.parse_iexpr(var))
                self.expect_sym(")")
                return ISignPow(node)
            node = self.nested(tok, lambda: self.parse_iexpr(var))
            self.expect_sym(")")
            return node
        self.fail(("integer", "variable", "'ceil2'", "'(-1)'", "'('"))


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

def _ieval(node: IExpr, value: int) -> int:
    if isinstance(node, IInt):
        return node.value
    if isinstance(node, IVar):
        return value
    if isinstance(node, IAdd):
        return _ieval(node.left, value) + _ieval(node.right, value)
    if isinstance(node, ISub):
        return _ieval(node.left, value) - _ieval(node.right, value)
    if isinstance(node, IMul):
        return _ieval(node.left, value) * _ieval(node.right, value)
    if isinstance(node, IDiv):
        num = _ieval(node.child, value)
        quotient, remainder = divmod(num, node.divisor)
        if remainder:
            raise EvalError(f"{num} div {node.divisor} is not exact")
        return quotient
    if isinstance(node, ICeil2):
        return ceil_half(_ieval(node.child, value))
    if isinstance(node, ISignPow):
        return -1 if _ieval(node.child, value) % 2 else 1
    raise TypeError(f"not an integer expression: {node!r}")


def evaluate(node: Expr, order: int) -> Series:
    """Evaluate a parsed expression to an exact Series at `order`."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
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
    if isinstance(node, Add):
        return evaluate(node.left, order) + evaluate(node.right, order)
    if isinstance(node, Sub):
        return evaluate(node.left, order) - evaluate(node.right, order)
    if isinstance(node, Mul):
        return evaluate(node.left, order) * evaluate(node.right, order)
    if isinstance(node, Div):
        # 1 / x is x's inverse alone, with no product by the constant 1
        if node.left == IntLit(1):
            return evaluate(node.right, order).inverse()
        return evaluate(node.left, order) * evaluate(node.right, order).inverse()
    if isinstance(node, Pow):
        return evaluate(node.child, order).power(node.exponent)
    if isinstance(node, Neg):
        return -evaluate(node.child, order)
    if isinstance(node, Theta):
        weight = node.weight
        exponent = node.exponent
        return theta_series(
            node.domain,
            lambda n: _ieval(weight, n),
            lambda n: _ieval(exponent, n),
            order,
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
            f"({_ipretty(node.weight)}; {_ipretty(node.exponent)})"
        )
    if isinstance(node, Neg):
        return "-" + _as_base(node.child)
    return "(" + pretty(node) + ")"


def _as_factor(node: Expr) -> str:
    if isinstance(node, Pow):
        return f"{_as_base(node.child)}^{node.exponent}"
    return _as_base(node)


def _as_term(node: Expr) -> str:
    if isinstance(node, Mul):
        return f"{_as_term(node.left)} * {_as_factor(node.right)}"
    if isinstance(node, Div):
        return f"{_as_term(node.left)} / {_as_factor(node.right)}"
    return _as_factor(node)


def pretty(node: Expr) -> str:
    """Canonical text for an AST; re-parsing gives back an identical tree."""
    if isinstance(node, Add):
        return f"{pretty(node.left)} + {_as_term(node.right)}"
    if isinstance(node, Sub):
        return f"{pretty(node.left)} - {_as_term(node.right)}"
    return _as_term(node)


def _ias_fact(node: IExpr) -> str:
    if isinstance(node, IInt):
        return str(node.value)
    if isinstance(node, IVar):
        return node.name
    if isinstance(node, ICeil2):
        return f"ceil2({_ipretty(node.child)})"
    if isinstance(node, ISignPow):
        return f"(-1)^({_ipretty(node.child)})"
    return "(" + _ipretty(node) + ")"


def _ias_term(node: IExpr) -> str:
    if isinstance(node, IMul):
        return f"{_ias_term(node.left)} * {_ias_fact(node.right)}"
    if isinstance(node, IDiv):
        return f"{_ias_term(node.child)} div {node.divisor}"
    return _ias_fact(node)


def _ipretty(node: IExpr) -> str:
    if isinstance(node, IAdd):
        return f"{_ipretty(node.left)} + {_ias_term(node.right)}"
    if isinstance(node, ISub):
        return f"{_ipretty(node.left)} - {_ias_term(node.right)}"
    return _ias_term(node)
