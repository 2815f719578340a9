import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podium.cli import main
from podium.dsl import (
    MAX_DEPTH,
    NAMED_THETA,
    PRODUCT_FORMS,
    Chain,
    EvalError,
    GfRef,
    IFunc,
    IVar,
    IntLit,
    Neg,
    ParseError,
    Poch,
    Pow,
    QPow,
    Subst,
    Theta,
    check,
    evaluate,
    expand,
    parse,
    pretty,
    tokenize,
    _ieval,
    _OnClass,
)
from podium.manifest import ManifestError, bundled_manifest, parse_manifest
from podium.partitions import FunctionId
from podium.series import Mismatch, Series, constant, pochhammer
from podium.theta import DivergenceError, Domain

from conftest import reference_evaluate, reference_parse, reference_tokenize


def ceil_half(n):
    return -((-n) // 2)


class TestParse:
    def test_poch_quotient(self):
        got = parse("poch(-q^1, q^2) / poch(q^2, q^2)")
        assert got == Chain(Poch(-1, 1, 2), (("/", Poch(1, 2, 2)),))

    def test_theta_node(self):
        got = parse("theta{n in Z}((-1)^(n); 2*n*n + n)")
        weight = IFunc("(-1)^", IVar("n"))
        product = Chain(IntLit(2), (("*", IVar("n")), ("*", IVar("n"))))
        exponent = Chain(product, (("+", IVar("n")),))
        assert got == Theta(Domain.ALL_INTEGERS, "n", weight, exponent)

    def test_gf_reference(self):
        assert parse("gf(eobar)") == GfRef(FunctionId.EOBAR)

    def test_subst_with_sign(self):
        got = parse("subst(gf(pod), -q^2)")
        assert got == Subst(GfRef(FunctionId.POD), 2, -1)

    def test_precedence(self):
        got = parse("1 + q^1 * 2^3")
        assert got == Chain(IntLit(1), (("+", Chain(QPow(1), (("*", Pow(IntLit(2), 3)),))),))

    def test_unary_minus_binds_tighter_than_mul(self):
        got = parse("-2 * 3")
        assert got == Chain(Neg(IntLit(2)), (("*", IntLit(3)),))

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse("-2^2") == Neg(Pow(IntLit(2), 2))
        assert list(expand("-2^2", 0)) == [-4]
        assert list(expand("(-2)^2", 0)) == [4]
        assert list(expand("-gf(pod)^2", 3)) == [-c for c in expand("gf(pod)^2", 3)]

    def test_left_associativity(self):
        got = parse("gf(p) - gf(pod) - gf(ped)")
        assert got == Chain(
            GfRef(FunctionId.P), (("-", GfRef(FunctionId.POD)), ("-", GfRef(FunctionId.PED)))
        )
        # a bracketed chain of the same level is spliced in, as it reads
        assert parse("(gf(p) - gf(pod)) - gf(ped)") == got


class TestParseErrors:
    def test_unclosed_gf(self):
        with pytest.raises(ParseError) as err:
            parse("gf(pod")
        assert err.value.offset == 6
        assert "')'" in err.value.expected

    def test_unknown_gf_name(self):
        with pytest.raises(ParseError) as err:
            parse("gf(nosuch)")
        assert err.value.offset == 3

    def test_unbound_theta_variable(self):
        with pytest.raises(ParseError) as err:
            parse("theta{n in Z}(1; m*m)")
        assert err.value.offset == 17

    def test_offset_counts_characters_not_bytes(self):
        # "m" is character 17 of the text but byte 18 of its UTF-8 encoding
        text = "theta{\u00e9 in Z}(1; m)"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == 17 and text[17] == "m"
        assert text.encode().index(b"m") == 18

    def test_theta_variable_must_be_a_name(self):
        with pytest.raises(ParseError) as err:
            parse("theta{1 in N}(1; n)")
        assert err.value.offset == 6
        assert err.value.expected == ("variable name",)

    def test_div_outside_theta(self):
        with pytest.raises(ParseError) as err:
            parse("1 div 2")
        assert err.value.offset == 2

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse("1 @ 2")
        assert err.value.offset == 2

    def test_oversized_integer_literal(self):
        with pytest.raises(ParseError) as err:
            parse("q^1^" + "9" * 5000)
        assert err.value.offset == 4
        assert "too long" in str(err.value)

    @pytest.mark.parametrize("text", ["q^\u00b2", "q^\u0663"])
    def test_non_ascii_digit(self, text):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == 2
        assert "unexpected character" in str(err.value)

    @pytest.mark.parametrize("text, offset", [
        ("gf(\u00b2)", 3),
        ("theta{\u0663 in Z}(1; n)", 6),
        ("theta{n in Z}(1; n*\u00b2)", 19),
        ("theta{n in Z}(1; \u0663 + n)", 17),
    ])
    def test_non_ascii_digit_where_a_name_or_integer_is_expected(self, text, offset):
        # a digit outside ASCII is no token at all, so the error is the lexer's
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"unexpected character {text[offset]!r} at offset {offset}"
        assert err.value.expected == ()

    def test_bad_character_after_many_tokens(self):
        with pytest.raises(ParseError) as err:
            parse("poch(q^1, q^1) \u00a7 2")
        assert str(err.value) == "unexpected character '\u00a7' at offset 15"
        with pytest.raises(ParseError) as err:
            parse("gf(pod) * " * 200 + "1 \x0b")
        assert err.value.offset == 2002

    def test_non_ascii_theta_variable(self):
        text = "theta{\u00e9 in Z}(1; \u00e9*\u00e9)"
        square = Chain(IVar("\u00e9"), (("*", IVar("\u00e9")),))
        assert parse(text) == Theta(Domain.ALL_INTEGERS, "\u00e9", IntLit(1), square)
        for order in (10, 100):
            assert expand(text, order) == expand("theta{n in Z}(1; n*n)", order)

    @pytest.mark.parametrize(
        "text, offset, message",
        [
            ("q^x", 2, "unexpected 'x' at offset 2 (expected integer)"),
            ("gf(1)", 3, "unexpected '1' at offset 3 (expected function name)"),
            ("theta{n in N}(1; (-2))", 18, "only (-1)^(...) may begin with '(-' at offset 18"),
            (
                "theta{n in N}(1; ;)",
                17,
                "unexpected ';' at offset 17 (expected integer or variable or 'ceil2'"
                " or '(-1)' or '(')",
            ),
        ],
    )
    def test_error_branch(self, text, offset, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset
        assert str(err.value) == message

    def test_q_needs_exponent(self):
        with pytest.raises(ParseError):
            parse("q + 1")
        with pytest.raises(ParseError):
            parse("q^0")

    def test_offsets_point_into_text(self):
        cases = ["gf(pod", "poch(q^1 q^1)", "theta{n in Q}(1; n)", "(1 + 2"]
        for text in cases:
            with pytest.raises(ParseError) as err:
                parse(text)
            assert 0 <= err.value.offset <= len(text)


def _lexed(lex, text):
    try:
        return lex(text)
    except ParseError as exc:
        return str(exc), exc.offset


# Grammar characters and keywords, letters and digits outside ASCII (two
# of them, "Ⅷ" and "½", numeric but not decimal), and whitespace the
# language does and does not skip.
_LEX_ALPHABET = (
    list(" +-*/^(){},;0123456789qn_")
    + "poch gf subst theta in Z N div ceil2".split()
    + list("\u00e9\u03a9\u00b2\u0663\u2167\u00bd")
    + list("\t\r\n\x0b\x0c\xa0")
)


@pytest.mark.parametrize("seed", range(4))
def test_tokenize_matches_the_character_loop(seed):
    rng = random.Random(seed)
    for _ in range(2500):
        text = "".join(rng.choice(_LEX_ALPHABET) for _ in range(rng.randint(0, 12)))
        assert _lexed(tokenize, text) == _lexed(reference_tokenize, text), repr(text)


def _parsed(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        return str(exc), exc.offset, exc.expected


_BUNDLED_SIDES = [side for rec in bundled_manifest() for side in (rec.lhs, rec.rhs)]

# Whole tokens of both grammars, words and digits outside ASCII, and
# whitespace the language does and does not skip, so random strings reach
# every parser branch and the lexer's error paths.
_PARSE_ALPHABET = (
    "poch gf subst theta in Z N div ceil2 q n m pod p xyz _ 0 1 2 17 + - * / ^ ( ) { } , ;".split()
    + ["(-1)^(", "q^1", "n*n", " ", " ", "\t", "\n", "\x0b", "\u00e9", "\u00b2", "\u0663", "\u00a7"]
)


def _random_texts(rng):
    for _ in range(3000):
        yield "".join(rng.choice(_PARSE_ALPHABET) for _ in range(rng.randint(0, 24)))


def _edited_sides(rng):
    for text in _BUNDLED_SIDES:
        for _ in range(8):
            at = rng.randrange(len(text))
            yield text[:at]
            yield text[:at] + text[at + 1 :]
            yield text[:at] + rng.choice(" ()+-*/^,;{}qn0\u00b2\u00a7") + text[at:]


def _named_texts(rng):
    yield from PRODUCT_FORMS.values()
    yield from NAMED_THETA.values()
    yield from _BUNDLED_SIDES


def _deep_texts(rng):
    deepest = rng.randint(MAX_DEPTH + 2, 3 * MAX_DEPTH)
    for depth in (MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, deepest):
        for build, _ in NESTING_SHAPES.values():
            text = build(depth)
            yield text
            yield text[: rng.randrange(len(text))]


@pytest.mark.parametrize("texts", [_random_texts, _edited_sides, _named_texts, _deep_texts],
                         ids=["random-tokens", "bundled-edits", "named", "deep"])
@pytest.mark.parametrize("seed", range(2))
def test_parse_matches_the_reference_parser(texts, seed):
    for text in texts(random.Random(seed)):
        assert _parsed(parse, text) == _parsed(reference_parse, text), repr(text)


class TestEvaluate:
    def test_pod_quotient(self):
        got = expand("poch(-q^1,q^2)/poch(q^2,q^2)", 8)
        assert list(got) == [1, 1, 1, 2, 3, 4, 5, 7, 10]

    def test_polynomial(self):
        assert list(expand("1 - q^1", 4)) == [1, -1, 0, 0, 0]

    def test_jacobi_cube_theta_vs_power(self):
        a = expand("theta{n in N}((2*n+1)*(-1)^(n); (n*(n+1)) div 2)", 10)
        b = expand("poch(q^1,q^1)^3", 10)
        assert a == b

    @pytest.mark.parametrize("call, message", [
        (lambda: _ieval(QPow(1), 1), r"not an integer expression: QPow\(k=1\)"),
        (lambda: evaluate(IVar("n"), 5), r"not a series expression: IVar\(name='n'\)"),
        (lambda: evaluate(IVar("n"), 40), r"not a series expression: IVar\(name='n'\)"),
    ], ids=["ieval", "evaluate-walk", "evaluate-eta-path"])
    def test_a_node_of_the_other_grammar(self, call, message):
        with pytest.raises(TypeError, match=message):
            call()

    def test_substitution_node(self):
        got = expand("subst(poch(q^1, q^1), q^2)", 20)
        assert got == pochhammer(1, 2, 2, 20)

    def test_division_by_non_unit(self):
        with pytest.raises(ValueError):
            expand("1 / (2 + q^1)", 4)

    def test_reciprocal_is_one_inverse_and_no_product(self, monkeypatch, dense_products):
        # the one mul scales the inverse by a constant: no Kronecker product
        expected = pochhammer(1, 1, 1, 10).inverse()
        calls = []
        mul, inverse = Series.__mul__, Series.inverse
        monkeypatch.setattr(Series, "__mul__", lambda a, b: calls.append("mul") or mul(a, b))
        monkeypatch.setattr(Series, "inverse", lambda a: calls.append("inverse") or inverse(a))
        for scale in (1, 2):
            calls.clear()
            assert expand(f"{scale} / poch(q^1, q^1)", 10).coeffs == tuple(
                scale * c for c in expected.coeffs
            )
            assert calls == ["inverse", "mul"]
        assert dense_products == []

    def test_inexact_div_inside_theta(self):
        with pytest.raises(EvalError):
            expand("theta{n in N}(1; n div 2)", 6)

    def test_qpow_beyond_order(self):
        assert expand("q^9", 4) == constant(0, 4)

    def test_order_monotone(self):
        text = "gf(pod) * theta{j in N}((-1)^(ceil2(j)); (j*(j+1)) div 2)"
        big = expand(text, 60)
        small = expand(text, 25)
        assert big.truncate(25) == small


# Theta exponents the scan would sum wrongly: one falls without bound, the
# other is negative at n = 11..19; both once expanded to "1 0 0 ..." at order 10.
WRONGLY_SCANNED = [
    "theta{n in N}(1; 100*n - n*n)",
    "theta{n in N}(1; n*n*n - 30*n*n + 200*n)",
]

WEIGHTS = {
    "1": lambda n: 1,
    "(-1)^(n)": lambda n: -1 if n % 2 else 1,
    "2*n+1": lambda n: 2 * n + 1,
    "n*n - 3": lambda n: n * n - 3,
}


# Exponents with ceil2 or (-1)^ and their sums at order 12.  A single scan
# over all n once cut the first three short; the last two were refused,
# because their ceil2 or (-1)^ argument has odd coefficients in m, though
# its parity is fixed on each class n = 2m + r, since x*x + x is even.
PARITY_CLASS_SUMS = {
    "theta{n in N}(1; 1000*(-1)^(n) + 1000 + n)": [0, 1] * 6 + [0],
    "theta{n in N}(1; 100*ceil2(n) - 50*n + n)": [1, 0] * 6 + [1],
    "theta{n in Z}(1; 1000*(-1)^(n) + 1000 + n*n)": [0, 2] + [0] * 7 + [2, 0, 0, 0],
    # 10 + n on every n
    "theta{n in N}(1; 10*(-1)^(ceil2(n)*ceil2(n) + ceil2(n)) + n)": [0] * 10 + [1] * 3,
    # the triangular numbers, each twice but 0
    "theta{n in N}(1; ceil2(ceil2(n)*ceil2(n) + ceil2(n)))": [1, 2, 0, 2, 0, 0, 2, 0, 0, 0, 2, 0, 0],
}


def _signed(k: int) -> str:
    return f"+ {k}" if k >= 0 else f"- {-k}"


class TestThetaExponent:
    @pytest.mark.parametrize("text", WRONGLY_SCANNED)
    def test_wrongly_scanned_exponents_are_refused(self, text, capsys):
        for order in (10, 40):
            with pytest.raises(EvalError):
                evaluate(parse(text), order)
        assert main(["expand", text, "--order", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("podium: theta exponent ")
        assert captured.err.count("\n") == 1

    def test_random_convex_quadratics_match_a_brute_force_sum(self):
        rng = random.Random(20240917)
        for _ in range(200):
            domain = rng.choice("NZ")
            a = rng.randint(1, 4)
            d = rng.choice((1, 2))
            b = rng.randint(-40, 40)
            if (a + b) % d:
                b += 1
            window = range(-300 if domain == "Z" else 0, 301)
            c = -min((a * n * n + b * n) // d for n in window) + rng.randint(0, 5)
            if rng.random() < 0.5:
                body = f"({a}*n*n {_signed(b)}*n) div {d} + {c}"
            else:
                # the same polynomial as a product, so "*" of two lines is read too
                body = f"(n*({a}*n {_signed(b)})) div {d} + {c}"
            weight = rng.choice(sorted(WEIGHTS))
            order = rng.randint(0, 60)
            expected = [0] * (order + 1)
            for n in window:
                e = (a * n * n + b * n) // d + c
                if e <= order:
                    expected[e] += WEIGHTS[weight](n)
            text = f"theta{{n in {domain}}}({weight}; {body})"
            assert list(expand(text, order)) == expected, text

    def test_random_concave_or_cubic_exponents_are_refused(self):
        rng = random.Random(77)
        for _ in range(100):
            a, b, c = rng.randint(1, 9), rng.randint(0, 50), rng.randint(0, 50)
            body = rng.choice([
                f"{c} + {b}*n - {a}*n*n",
                f"({c} - {a}*n*n) div 1 + {b}*n",
                f"{a}*n*n*n {_signed(-b)}*n*n + {c}",
                f"(n*n) * ({a}*n*n + {b}) + {c}",
                f"{c} - n*({a}*n + {b})*n",
            ])
            text = f"theta{{n in {rng.choice('NZ')}}}(1; {body})"
            with pytest.raises(EvalError, match="theta exponent"):
                expand(text, rng.randint(0, 60))

    def test_cancelled_terms_do_not_count(self):
        # n^3 - n^3 + n is a line, so the scan sums it
        assert list(expand("theta{n in N}(1; n*n*n - n*n*n + n)", 5)) == [1] * 6

    @pytest.mark.parametrize("text", sorted(PARITY_CLASS_SUMS))
    def test_ceil2_and_sign_exponents_are_summed_per_parity_class(self, text):
        assert list(expand(text, 12)) == PARITY_CLASS_SUMS[text]

    def test_random_parity_class_exponents_match_a_brute_force_sum(self):
        rng = random.Random(20261018)
        for i in range(400):
            a = rng.randint(0, 3)
            domain = rng.choice("NZ") if a else "N"
            # with a = 0, each class is a line rising by 2b + c >= 1 per step in m
            b = rng.randint(-40, 40) if a else rng.randint(1, 5)
            c = rng.randint(-20, 20) if a else rng.randint(1 - 2 * b, 10)
            s, j = rng.randint(-20, 20), rng.randint(0, 3)
            square = rng.choice(["n*n", "ceil2(n)*ceil2(n)"])
            # From body 200 on, two arguments with odd coefficients in m but
            # a parity fixed on each class: x*x + x is even for any x.
            u, t = (rng.randint(0, 2), rng.randint(-20, 20)) if i >= 200 else (0, 0)

            def e(n):
                sq = n * n if square == "n*n" else ceil_half(n) ** 2
                sign = -1 if (n + j) % 2 else 1
                x, y = ceil_half(n + j), ceil_half(n)
                fixed = u * ceil_half(x * x + x + n) + t * (-1 if (y * y + y + n + j) % 2 else 1)
                return a * sq + b * n + c * ceil_half(n + j) + s * sign + fixed

            window = range(-300 if domain == "Z" else 0, 301)
            k = -min(e(n) for n in window) + rng.randint(0, 5)
            body = (
                f"{a}*{square} {_signed(b)}*n {_signed(c)}*ceil2(n + {j})"
                f" {_signed(s)}*(-1)^(n + {j}) {_signed(k)}"
            )
            if i >= 200:
                body += (
                    f" + {u}*ceil2(ceil2(n + {j})*ceil2(n + {j}) + ceil2(n + {j}) + n)"
                    f" {_signed(t)}*(-1)^(ceil2(n)*ceil2(n) + ceil2(n) + n + {j})"
                )
            weight = rng.choice(sorted(WEIGHTS))
            order = rng.randint(0, 60)
            expected = [0] * (order + 1)
            for n in window:
                if e(n) + k <= order:
                    expected[e(n) + k] += WEIGHTS[weight](n)
            text = f"theta{{n in {domain}}}({weight}; {body})"
            assert list(expand(text, order)) == expected, text

    @pytest.mark.parametrize(
        "body",
        [
            "ceil2(ceil2(n))",
            "ceil2(n div 2) + n",
            "n*n + (-1)^((n*(n+1)) div 2)",
            "n*n + (-1)^(ceil2(n))",
        ],
    )
    def test_parity_that_varies_within_a_class_is_refused(self, body):
        with pytest.raises(EvalError, match="^theta exponent"):
            expand(f"theta{{n in N}}(1; {body})", 10)

    def test_reading_a_body_on_a_class_equals_evaluating_it(self):
        rng = random.Random(20261019)

        def body(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(["n", "n", "0", "1", "2", "3", "7"])
            kind = rng.randrange(6)
            if kind < 3:
                return f"({body(depth - 1)}) {'+-*'[kind]} ({body(depth - 1)})"
            if kind == 3:
                return f"({body(depth - 1)}) div {rng.choice([1, 2, 2, 3, 4])}"
            return f"{rng.choice(['ceil2', '(-1)^'])}({body(depth - 1)})"

        read = 0
        for _ in range(1500):
            ast = parse(f"theta{{n in N}}(1; {body(4)})")
            assert parse(pretty(ast)) == ast
            for r in (0, 1):
                values = {}
                for m in range(-20, 21):
                    try:
                        values[m] = _ieval(ast.exponent, 2 * m + r)
                    except EvalError:
                        pass
                try:
                    got = _ieval(ast.exponent, _OnClass([r, 2], 1, r))
                except EvalError as exc:
                    # a constant inexact div is inexact at every n of the class
                    assert "not exact" not in str(exc) or not values, pretty(ast)
                    continue
                read += 1
                c, d = (got.c, got.d) if isinstance(got, _OnClass) else ([got], 1)
                for m, value in values.items():
                    assert sum(u * m**i for i, u in enumerate(c)) == value * d, pretty(ast)
        assert read > 1500

    def test_a_class_that_never_grows_is_refused(self):
        # 5 on every even n
        with pytest.raises(DivergenceError):
            expand("theta{n in N}(1; 20*ceil2(n) - 10*n + 5)", 12)

    @pytest.mark.parametrize(
        "text",
        [
            "theta{n in N}(1; 7)",
            "theta{n in N}(1; 2*n + 1)",
            "theta{n in Z}((-1)^(n); ceil2(n)*ceil2(n) - 0*n*n*n)",
        ],
    )
    def test_scan_still_sums_flat_lines_and_ceil2(self, text):
        assert isinstance(expand(text, 5), Series)


class TestCheck:
    def test_recurrence_passes(self):
        lhs = parse("gf(pod) * theta{j in N}((-1)^(ceil2(j)); (j*(j+1)) div 2)")
        assert check(lhs, parse("1"), 200) is None

    def test_mod2_congruence(self):
        assert check(parse("gf(pod)"), parse("gf(cubic)"), 100, modulus=2) is None

    def test_first_mismatch_reported(self):
        got = check(parse("gf(pod)"), parse("gf(p)"), 10)
        assert got == Mismatch(2, 1, 2)

    def test_corrupted_rhs(self):
        got = check(parse("gf(p)"), parse("1"), 10)
        assert got == Mismatch(1, 1, 0)


class TestPretty:
    @pytest.mark.parametrize(
        "text",
        [
            "1 - (q^1 + q^2) * gf(p)",
            "-(gf(p) * q^2)^-1 + -3",
            "subst(gf(pod) / (1 - q^1), -q^2)^2",
            "theta{k in N}((-1)^(ceil2(k)); ceil2(k)*ceil2(3*k+1))",
            "2^3 * q^2^2",
            "gf(pod) - gf(p) - gf(ped)",
            "gf(pod) - (gf(p) - gf(ped))",
            "gf(p) / (gf(pod) / gf(ped))",
            "poch(q^1, q^1)^5 / poch(q^2, q^2)^2",
            "theta{n in Z}(6*n+1; (n*(3*n+1)) div 2)",
            "theta{n in N}((-1)^((n*(n+1)) div 2); (n*(n+1)) div 2)",
            "theta{n in Z}((-1)^(ceil2(n*(n+1) div 2)); (n + 1)*(n + 2) div 2 + 3*n*n)",
            "theta{n in N}(2*(n - 1)*ceil2(n) div 2; n*(n*(n + 1) div 2 - (n - 3)) + 1)",
            "theta{m in Z}((-1)^((-1)^(m) + m) * (m + 1); (2*m*m + m) div 1 - 0)",
            "(-2)^2",
            "-2^2",
        ],
    )
    def test_round_trip(self, text):
        ast = parse(text)
        assert parse(pretty(ast)) == ast

    def test_canonical_spacing(self):
        assert pretty(parse("gf(pod)*gf(p)")) == "gf(pod) * gf(p)"

    def test_regrouping_gets_parens(self):
        ast = Chain(IntLit(1), (("-", Chain(IntLit(2), (("+", IntLit(3)),))),))
        assert pretty(ast) == "1 - (2 + 3)"
        assert parse(pretty(ast)) == ast

    def test_right_division_gets_parens(self):
        ast = Chain(
            GfRef(FunctionId.P),
            (("/", Chain(GfRef(FunctionId.POD), (("/", GfRef(FunctionId.PED)),))),),
        )
        assert pretty(ast) == "gf(p) / (gf(pod) / gf(ped))"
        assert parse(pretty(ast)) == ast


def _bracketed_chain(terms):
    # a chain inside brackets, continued outside them: one flat chain
    inner = terms // 2
    return "(" + "+".join(["1"] * inner) + ")" + "+1" * (terms - inner)


# Each shape builds text nested exactly `depth` levels deep, paired with
# the offset of the token that goes past the bound at MAX_DEPTH + 1.
NESTING_SHAPES = {
    "brackets": (lambda d: "(" * d + "q^1" + ")" * d, lambda text: MAX_DEPTH),
    "unary-minus": (lambda d: "-" * d + "1", lambda text: MAX_DEPTH),
    "subst": (
        lambda d: "subst(" * d + "q^1" + ", q^1)" * d,
        lambda text: 6 * MAX_DEPTH,
    ),
}

# Each shape builds one operator chain of `terms` operands.  A chain is one
# flat node, so its length is bounded by nothing but the text.
CHAIN_SHAPES = {
    "flat-chain": lambda terms: "+".join(["1"] * terms),
    "theta-chain": lambda terms: "theta{n in N}(1; " + "+".join(["n"] * terms) + ")",
    "bracketed-chain": _bracketed_chain,
}


def _worst_case(depth):
    # a sum, a product and a power at every level: about 3 * depth high
    text = "q^1"
    for _ in range(depth):
        text = f"({text} * q^1 + 1)^1"
    return text


class TestDepthBound:
    @pytest.mark.parametrize("shape", sorted(NESTING_SHAPES) + sorted(CHAIN_SHAPES))
    def test_at_bound_parses_evaluates_and_round_trips(self, shape):
        if shape in NESTING_SHAPES:
            text = NESTING_SHAPES[shape][0](MAX_DEPTH)
        else:
            text = CHAIN_SHAPES[shape](3000)
        ast = parse(text)
        assert expand(text, 4) == reference_evaluate(ast, 4)
        assert parse(pretty(ast)) == ast

    @pytest.mark.parametrize("shape", sorted(NESTING_SHAPES))
    def test_past_bound_is_a_parse_error_at_the_offending_token(self, shape):
        build, offset = NESTING_SHAPES[shape]
        text = build(MAX_DEPTH + 1)
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset(text)
        with pytest.raises(ParseError):
            parse(build(3000))

    @pytest.mark.parametrize("shape", sorted(NESTING_SHAPES))
    def test_past_bound_exits_2_from_expand_and_verify(self, shape, capsys, tmp_path):
        text = NESTING_SHAPES[shape][0](MAX_DEPTH + 1)
        assert main(["expand", "--order", "4", "--", text]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        record = f"[identity]\nid=deep\nlhs={text}\nrhs=1\norder=4\n"
        with pytest.raises(ManifestError):
            parse_manifest(record)
        path = tmp_path / "deep.txt"
        path.write_text(record)
        assert main(["verify", "--manifest", str(path)]) == 2
        assert "deeper than" in capsys.readouterr().err

    def test_worst_case_at_bound_stays_inside_the_recursion_limit(self):
        text = _worst_case(MAX_DEPTH)
        ast = parse(text)
        for order in (4, 40):
            assert list(evaluate(ast, order)) == [1] * (order + 1)
        again = parse(pretty(ast))
        assert again == ast
        with pytest.raises(ParseError):
            parse(_worst_case(MAX_DEPTH + 1))

    def test_flat_sum_of_ten_thousand_terms_is_fast(self):
        started = time.perf_counter()
        got = expand(" + ".join(["q^1"] * 10**4), 4)
        assert time.perf_counter() - started < 2
        assert list(got) == [0, 10**4, 0, 0, 0]

    def test_flat_product_exponent_is_refused_fast(self):
        # read by a left fold that skips zero coefficients: on n = 2m, (2m)^k has one
        text = "theta{n in N}(1; " + "*".join(["n"] * 2048) + ")"
        started = time.perf_counter()
        with pytest.raises(EvalError, match="degree 2048"):
            expand(text, 4)
        assert time.perf_counter() - started < 0.5

    def test_dense_product_exponent_is_refused_fast(self, capsys):
        # (2m + 1)^k has k + 1 coefficients of up to 1.6k bits each
        text = "theta{n in N}(1; " + "*".join(["(n+1)"] * 2048) + ")"
        started = time.perf_counter()
        assert main(["expand", "--order", "4", "--", text]) == 2
        assert time.perf_counter() - started < 0.5
        err = capsys.readouterr().err
        assert err == "podium: theta exponent is too large to read\n"


# Text drawn from the grammar, then edited by inserting grammar tokens or
# digits that are not ASCII, so it is often valid and often just past it.
def _joined(parts, template):
    return st.tuples(*parts).map(lambda t: template.format(*t))


_BODY = st.recursive(
    st.sampled_from(["0", "1", "12", "n"]),
    lambda inner: st.one_of(
        _joined([inner, st.sampled_from("+-*"), inner], "{} {} {}"),
        _joined([inner, st.sampled_from("123")], "{} div {}"),
        _joined([inner], "({})"),
        _joined([inner], "ceil2({})"),
        _joined([inner], "(-1)^({})"),
    ),
    max_leaves=5,
)
_SERIES = st.recursive(
    st.one_of(
        st.sampled_from(["0", "2", "q^1", "q^2", "poch(q^1, q^1)", "poch(-q^1, q^2)", "gf(pod)"]),
        _joined([st.sampled_from("ZN"), _BODY, _BODY], "theta{{n in {}}}({}; {})"),
    ),
    lambda inner: st.one_of(
        _joined([inner, st.sampled_from("+-*/"), inner], "{} {} {}"),
        _joined([inner, st.sampled_from(["2", "-1"])], "{}^{}"),
        _joined([inner], "({})"),
        _joined([inner], "-{}"),
        _joined([inner], "subst({}, -q^2)"),
    ),
    max_leaves=5,
)
# half the inserted pieces are digits outside ASCII: superscript 2 and 3, Arabic-Indic 3
_PIECES = st.one_of(
    st.sampled_from("\u00b2\u00b3\u0663"),
    st.sampled_from("+ - * / ^ ( ) { } , ; 0 1 12 q n m div ceil2 theta".split()),
)


@settings(max_examples=300, deadline=None)
@given(_SERIES, st.lists(st.tuples(st.integers(min_value=0), _PIECES), max_size=2))
def test_any_text_is_a_parse_error_or_round_trips(text, edits):
    for at, piece in edits:
        at %= len(text) + 1
        text = text[:at] + piece + text[at:]
    try:
        ast = parse(text)
    except ParseError:
        return
    assert parse(pretty(ast)) == ast
