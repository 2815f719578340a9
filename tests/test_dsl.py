import pytest

from podium.cli import main
from podium.dsl import (
    MAX_DEPTH,
    Add,
    Div,
    EvalError,
    GfRef,
    IAdd,
    IMul,
    IInt,
    ISignPow,
    IVar,
    IntLit,
    Mul,
    Neg,
    ParseError,
    Poch,
    Pow,
    QPow,
    Sub,
    Subst,
    Theta,
    check,
    evaluate,
    expand,
    parse,
    pretty,
)
from podium.manifest import ManifestError, parse_manifest
from podium.partitions import FunctionId
from podium.series import Mismatch, Series, constant, pochhammer
from podium.theta import Domain


class TestParse:
    def test_poch_quotient(self):
        got = parse("poch(-q^1, q^2) / poch(q^2, q^2)")
        assert got == Div(Poch(-1, 1, 2), Poch(1, 2, 2))

    def test_theta_node(self):
        got = parse("theta{n in Z}((-1)^(n); 2*n*n + n)")
        weight = ISignPow(IVar("n"))
        exponent = IAdd(IMul(IMul(IInt(2), IVar("n")), IVar("n")), IVar("n"))
        assert got == Theta(Domain.ALL_INTEGERS, "n", weight, exponent)

    def test_gf_reference(self):
        assert parse("gf(eobar)") == GfRef(FunctionId.EOBAR)

    def test_subst_with_sign(self):
        got = parse("subst(gf(pod), -q^2)")
        assert got == Subst(GfRef(FunctionId.POD), 2, -1)

    def test_precedence(self):
        got = parse("1 + q^1 * 2^3")
        assert got == Add(IntLit(1), Mul(QPow(1), Pow(IntLit(2), 3)))

    def test_unary_minus_binds_tighter_than_mul(self):
        got = parse("-2 * 3")
        assert got == Mul(Neg(IntLit(2)), IntLit(3))

    def test_left_associativity(self):
        got = parse("gf(p) - gf(pod) - gf(ped)")
        assert got == Sub(Sub(GfRef(FunctionId.P), GfRef(FunctionId.POD)), GfRef(FunctionId.PED))


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

    def test_div_outside_theta(self):
        with pytest.raises(ParseError) as err:
            parse("1 div 2")
        assert err.value.offset == 2

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse("1 @ 2")
        assert err.value.offset == 2

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

    def test_substitution_node(self):
        got = expand("subst(poch(q^1, q^1), q^2)", 20)
        assert got == pochhammer(1, 2, 2, 20)

    def test_division_by_non_unit(self):
        with pytest.raises(ValueError):
            expand("1 / (2 + q^1)", 4)

    def test_reciprocal_is_one_inverse_and_no_product(self, monkeypatch):
        expected = pochhammer(1, 1, 1, 10).inverse()
        calls = []
        mul, inverse = Series.__mul__, Series.inverse
        monkeypatch.setattr(Series, "__mul__", lambda a, b: calls.append("mul") or mul(a, b))
        monkeypatch.setattr(Series, "inverse", lambda a: calls.append("inverse") or inverse(a))
        assert expand("1 / poch(q^1, q^1)", 10) == expected
        assert calls == ["inverse"]
        calls.clear()
        expand("2 / poch(q^1, q^1)", 10)
        assert calls == ["inverse", "mul"]

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
        ],
    )
    def test_round_trip(self, text):
        ast = parse(text)
        assert parse(pretty(ast)) == ast

    def test_canonical_spacing(self):
        assert pretty(parse("gf(pod)*gf(p)")) == "gf(pod) * gf(p)"

    def test_regrouping_gets_parens(self):
        ast = Sub(IntLit(1), Add(IntLit(2), IntLit(3)))
        assert pretty(ast) == "1 - (2 + 3)"
        assert parse(pretty(ast)) == ast

    def test_right_division_gets_parens(self):
        ast = Div(GfRef(FunctionId.P), Div(GfRef(FunctionId.POD), GfRef(FunctionId.PED)))
        assert pretty(ast) == "gf(p) / (gf(pod) / gf(ped))"
        assert parse(pretty(ast)) == ast


def _bracketed_chain(depth):
    # a chain inside brackets, continued outside them: the heights add up
    inner = depth // 2
    return "(" + "+".join(["1"] * inner) + ")" + "+1" * (depth - inner)


# Each shape builds text whose tree is exactly `depth` levels high, paired
# with the offset of the token that goes past the bound at MAX_DEPTH + 1.
DEPTH_SHAPES = {
    "brackets": (lambda d: "(" * d + "q^1" + ")" * d, lambda text: MAX_DEPTH),
    "unary-minus": (lambda d: "-" * d + "1", lambda text: MAX_DEPTH),
    "subst": (
        lambda d: "subst(" * d + "q^1" + ", q^1)" * d,
        lambda text: 6 * MAX_DEPTH,
    ),
    "flat-chain": (lambda d: "+".join(["1"] * (d + 1)), lambda text: 2 * MAX_DEPTH + 1),
    "theta-chain": (
        lambda d: "theta{n in N}(1; " + "+".join(["n"] * d) + ")",
        lambda text: 0,
    ),
    "bracketed-chain": (_bracketed_chain, lambda text: len(text) - 2),
}


@pytest.mark.parametrize("shape", sorted(DEPTH_SHAPES))
class TestDepthBound:
    def test_at_bound_parses_evaluates_and_round_trips(self, shape):
        text = DEPTH_SHAPES[shape][0](MAX_DEPTH)
        ast = parse(text)
        assert isinstance(expand(text, 4), Series)
        assert parse(pretty(ast)) == ast

    def test_past_bound_is_a_parse_error_at_the_offending_token(self, shape):
        build, offset = DEPTH_SHAPES[shape]
        text = build(MAX_DEPTH + 1)
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset(text)
        with pytest.raises(ParseError):
            parse(build(3000))

    def test_past_bound_exits_2_from_expand_and_verify(self, shape, capsys, tmp_path):
        text = DEPTH_SHAPES[shape][0](MAX_DEPTH + 1)
        assert main(["expand", "--order", "4", "--", text]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        record = f"[identity]\nid=deep\nlhs={text}\nrhs=1\norder=4\n"
        with pytest.raises(ManifestError):
            parse_manifest(record)
        path = tmp_path / "deep.txt"
        path.write_text(record)
        assert main(["verify", "--manifest", str(path)]) == 2
        assert "deeper than" in capsys.readouterr().err
