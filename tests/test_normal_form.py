"""The eta-quotient normal form, its sparse kernels and the evaluator.

Each rewrite rule is checked as an identity against the per-index
Pochhammer reference, the kernels against schoolbook products, and the
evaluator as a whole against the plain tree walk it replaced: the same
coefficients, or the same exception with the same message.
"""

import random
import time

import pytest

from conftest import outcome, reference_evaluate, reference_inverse, reference_pochhammer
from podium import dsl
from podium.dsl import evaluate, expand, normal_form, parse, pretty
from podium.manifest import bundled_manifest
from podium.series import NEWTON_BASE, Series, constant
from podium import series

ORDER = 64


def etas(text):
    found = normal_form(parse(text))
    assert found is not None, text
    return found


class TestRewriteRules:
    @pytest.mark.parametrize("b", [1, 2, 3, 5])
    def test_eta_factor(self, b):
        assert etas(f"poch(q^{b}, q^{b})") == {b: 1}
        assert expand(f"poch(q^{b}, q^{b})", ORDER) == reference_pochhammer(1, b, b, ORDER)

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_half_step(self, a):
        # (q^a; q^2a) = (q^a; q^a) / (q^2a; q^2a)
        assert etas(f"poch(q^{a}, q^{2 * a})") == {a: 1, 2 * a: -1}
        text = f"poch(q^{a}, q^{2 * a})"
        assert expand(text, ORDER) == reference_pochhammer(1, a, 2 * a, ORDER)

    @pytest.mark.parametrize("a, b", [(1, 1), (2, 2), (1, 2), (3, 6)])
    def test_plus_sign(self, a, b):
        # (-q^a; q^b) = (q^2a; q^2b) / (q^a; q^b)
        assert etas(f"poch(-q^{a}, q^{b})")
        assert expand(f"poch(-q^{a}, q^{b})", ORDER) == reference_pochhammer(-1, a, b, ORDER)

    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_minus_q(self, b):
        text = f"subst(poch(q^{b}, q^{b}), -q^1)"
        if b % 2:
            assert etas(text) == {b: -1, 2 * b: 3, 4 * b: -1}
        else:
            assert etas(text) == {b: 1}
        expected = reference_pochhammer(1, b, b, ORDER).substitute(1, -1)
        assert expand(text, ORDER) == expected

    @pytest.mark.parametrize("k, sign", [(2, 1), (3, 1), (2, -1), (3, -1)])
    def test_q_power(self, k, sign):
        minus = "-" if sign == -1 else ""
        text = f"subst(poch(q^1, q^1) * poch(q^2, q^2)^2, {minus}q^{k})"
        assert set(etas(text)) <= {k, 2 * k, 4 * k}
        inner = reference_pochhammer(1, 1, 1, ORDER) * reference_pochhammer(1, 2, 2, ORDER) ** 2
        assert expand(text, ORDER) == inner.substitute(k, sign)

    def test_mul_div_pow_add_subtract_and_scale(self):
        text = "poch(q^1, q^1)^5 / (poch(q^2, q^2) * poch(q^1, q^1)^-2)"
        assert etas(text) == {1: 7, 2: -1}
        assert etas("poch(q^1, q^1)^0") == {}
        assert etas("poch(q^3, q^3) / poch(q^3, q^3)") == {}

    def test_gf_lowers_through_its_product_form(self):
        assert etas("gf(pod)") == {1: -1, 2: 1, 4: -1}
        assert etas("gf(qodd)") == {1: -1, 2: 2, 4: -1}
        assert etas("gf(p2mod4)") == {2: -1, 4: 1}

    # A poch, gf or subst with an eta part beside a non-eta one has no
    # normal form; the evaluator then walks the tree, so each text still
    # evaluates to the tree walk's coefficients at an order where the eta
    # kernels are on.
    def assert_no_normal_form(self, texts):
        for text in texts:
            assert normal_form(parse(text)) is None, text
            order = 2 * NEWTON_BASE
            assert outcome(evaluate, text, order) == outcome(reference_evaluate, text, order)

    def test_leftovers_keep_their_place(self):
        self.assert_no_normal_form((
            "poch(q^1, q^4)",
            "poch(-q^1, q^3)",
            "poch(q^1, q^1) / poch(q^1, q^4)",
            "subst(poch(q^1, q^4) * poch(q^2, q^2), -q^1)",
        ))

    def test_nothing_to_lower_is_its_own_rest(self):
        self.assert_no_normal_form(
            ("1 / (2 + q^1)", "theta{n in Z}(1; n*n) * poch(q^1, q^4)", "(1 - q^1)^-3"))

    def test_rest_is_a_fixed_point(self):
        self.assert_no_normal_form(
            ("poch(q^1, q^1) / (poch(q^1, q^4) * (2 - q^3)) * theta{n in Z}(1; n*n)",))


# Eighteen bundled records have equal normal forms on both sides, so
# their two sides agree at every order once the rewrite rules hold.
EQUAL_NORMAL_FORMS = {
    "pod-product-ratio", "pod-product-mod4", "pod-jacobi-product",
    "pod-ped-convolution", "pod-qodd-p-convolution", "qodd-pod-pentagonal",
    "qodd-peo-alternating", "afun-product-recip", "afun-product-split",
    "pod-afun-opbar", "opbar-product", "opodd-product",
    "pod-opodd-alternating", "qeo-pod-convolution", "pod-p2mod4-p",
    "pod-p-quartic", "p-pod-qodd-cubic", "eobar-product",
}


def test_bundled_records_with_equal_normal_forms():
    equal = set()
    for rec in bundled_manifest():
        left = normal_form(parse(rec.lhs))
        if left is not None and left == normal_form(parse(rec.rhs)):
            equal.add(rec.id)
    assert equal == EQUAL_NORMAL_FORMS


# ----------------------------------------------------------------------
# the evaluator against the tree walk it replaced
# ----------------------------------------------------------------------

ETA_POCH = ["poch(q^1, q^1)", "poch(q^2, q^2)", "poch(q^1, q^2)", "poch(q^3, q^6)",
            "poch(-q^1, q^1)", "poch(-q^2, q^2)", "poch(-q^1, q^2)"]
OTHER_POCH = ["poch(q^1, q^4)", "poch(q^3, q^4)", "poch(-q^1, q^3)", "poch(-q^2, q^5)"]
GF = ["gf(pod)", "gf(p)", "gf(eo)", "gf(qodd3)", "gf(opodd)", "gf(eobar)"]
OTHER = ["1", "2", "-1", "3", "(1 - q^1)", "(2 + q^1)", "(1 + q^2 - q^5)",
         "theta{n in Z}(1; n*n)", "theta{n in N}((2*n+1)*(-1)^(n); (n*(n+1)) div 2)",
         "theta{n in N}(1; n div 2)"]
EXPONENTS = [-9, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 7]


def random_text(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(rng.choice([ETA_POCH, ETA_POCH, OTHER_POCH, GF, OTHER]))
    left = random_text(rng, depth - 1)
    kind = rng.choice("**//^^sa")
    if kind == "*":
        return f"({left}) * ({random_text(rng, depth - 1)})"
    if kind == "/":
        return f"({left}) / ({random_text(rng, depth - 1)})"
    if kind == "^":
        return f"({left})^{rng.choice(EXPONENTS)}"
    if kind == "s":
        return f"subst({left}, {rng.choice(['', '-'])}q^{rng.randint(1, 3)})"
    return f"({left}) {rng.choice('+-')} ({random_text(rng, depth - 1)})"


@pytest.mark.parametrize("seed", range(6))
def test_evaluate_equals_the_tree_walk(seed):
    rng = random.Random(seed)
    for _ in range(25):
        text = random_text(rng, 3)
        order = rng.randint(NEWTON_BASE, 300)
        assert outcome(evaluate, text, order) == outcome(reference_evaluate, text, order), text


@pytest.mark.parametrize("order", [20, 40, 300])
def test_bundled_sides_equal_the_tree_walk(order):
    for rec in bundled_manifest():
        for text in (rec.lhs, rec.rhs):
            assert outcome(evaluate, text, order) == outcome(reference_evaluate, text, order)


class TestTraps:
    def test_inverted_leftover_to_the_power_zero_still_raises(self):
        with pytest.raises(ValueError, match="constant term 2 has no integer inverse"):
            expand("(1/(2+q^1))^0", 40)

    def test_inverse_error_comes_before_a_later_theta_error(self):
        with pytest.raises(ValueError) as caught:
            expand("(1/(2+q^1)) * theta{n in N}(1; n div 2)", 40)
        assert type(caught.value) is ValueError
        assert "no integer inverse" in str(caught.value)

    def test_message_carries_the_inverted_constant(self):
        got = outcome(evaluate, "1 / (poch(q^1, q^1) * (2 + q^1)^2)", 40)
        assert got == (ValueError, "series with constant term 4 has no integer inverse")


class TestLayerCalls:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        mul, inverse, poch = series.Series.__mul__, series.Series.inverse, dsl.pochhammer
        monkeypatch.setattr(Series, "__mul__", lambda a, b: seen.append("mul") or mul(a, b))
        monkeypatch.setattr(Series, "inverse", lambda a: seen.append("inverse") or inverse(a))
        monkeypatch.setattr(
            dsl, "pochhammer", lambda *args: seen.append("pochhammer") or poch(*args)
        )
        return seen

    def test_eta_reciprocal_is_the_recurrence_alone(self, calls):
        got = expand("1 / poch(q^1, q^1)", ORDER)
        assert got == reference_inverse(reference_pochhammer(1, 1, 1, ORDER))
        assert calls == []

    def test_leftover_reciprocal_is_one_inverse(self, calls):
        got = expand("1 / poch(q^1, q^4)", ORDER)
        assert got == reference_inverse(reference_pochhammer(1, 1, 4, ORDER))
        assert calls == ["pochhammer", "inverse"]

    @pytest.mark.parametrize("text", [
        "theta{n in Z}(1; n*n) * poch(q^1, q^1)",
        "poch(q^1, q^1) * theta{n in Z}(1; n*n)",
        "theta{n in Z}(1; n*n) / gf(pod)",
    ])
    def test_eta_operand_of_a_mixed_product_is_sparse(self, calls, text):
        got = expand(text, ORDER)
        assert calls == []
        assert got == reference_evaluate(parse(text), ORDER)

    def test_eta_dividend_over_a_non_eta_divisor(self, calls):
        text = "poch(q^1, q^1) / poch(q^1, q^4)"
        got = expand(text, ORDER)
        assert calls == ["pochhammer", "inverse"]
        assert got == reference_evaluate(parse(text), ORDER)

    def test_below_the_cutoff_the_tree_is_walked(self, calls):
        expand("1 / poch(q^1, q^1)", NEWTON_BASE - 1)
        assert calls == ["pochhammer", "inverse"]


class TestMemo:
    """A whole eta quotient is expanded once per vector and order."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        dsl._eta_expansion.cache_clear()
        yield
        dsl._eta_expansion.cache_clear()

    @pytest.mark.parametrize("order", [NEWTON_BASE, 300])
    def test_warm_memo_equals_the_tree_walk(self, order):
        sides = [parse(text) for rec in bundled_manifest() for text in (rec.lhs, rec.rhs)]
        sides = [node for node in sides if normal_form(node) is not None]
        for node in sides:
            evaluate(node, order)
        for node in reversed(sides):
            got, expected = evaluate(node, order), reference_evaluate(node, order)
            assert got.coeffs == expected.coeffs, pretty(node)
        assert dsl._eta_expansion.cache_info().hits > len(sides)

    def test_two_spellings_of_one_vector_share_an_entry(self):
        pod = evaluate(parse("gf(pod)"), ORDER)
        spelled = evaluate(parse("poch(-q^1, q^2) / poch(q^2, q^2)"), ORDER)
        assert spelled is pod
        info = dsl._eta_expansion.cache_info()
        assert (info.hits, info.currsize) == (1, 1)

    def test_each_order_has_its_own_entry(self):
        node = parse("gf(pod)")
        for order in (40, 41):
            # Series == compares the common prefix; coeffs pin the order too
            assert evaluate(node, order).coeffs == reference_evaluate(node, order).coeffs
        assert dsl._eta_expansion.cache_info().currsize == 2

    def test_equal_vector_record_expands_once(self, monkeypatch):
        seen = []
        kernel = dsl.eta_quotient
        monkeypatch.setattr(
            dsl, "eta_quotient", lambda *args: seen.append(args[1]) or kernel(*args)
        )
        rec = next(rec for rec in bundled_manifest() if rec.id == "pod-product-ratio")
        assert dsl.check(parse(rec.lhs), parse(rec.rhs), rec.order) is None
        assert seen == [{1: -1, 2: 1, 4: -1}]


class TestEtaKernels:
    @pytest.mark.parametrize("seed", range(4))
    def test_equal_the_schoolbook_product(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            order = rng.randint(0, 90)
            exponents = {rng.randint(1, 6): rng.randint(-7, 7) for _ in range(rng.randint(0, 3))}
            base = Series([rng.randint(-5, 5) for _ in range(order + 1)])
            expected = base
            for b, a in exponents.items():
                factor = reference_pochhammer(1, b, b, order)
                if a < 0:
                    factor = reference_inverse(factor)
                for _ in range(abs(a)):
                    expected = expected * factor
            assert series.eta_quotient(base, exponents) == expected, exponents

    def test_large_exponents_take_one_pass(self):
        started = time.perf_counter()
        got = series.eta_quotient(constant(1, 200), {1: 10**6})
        assert time.perf_counter() - started < 0.5
        assert got[1] == -(10**6)
        assert got[2] == 10**6 * (10**6 - 3) // 2

