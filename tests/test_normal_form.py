"""The eta-quotient normal form, its sparse kernels and the evaluator.

Each rewrite rule is checked as an identity against the per-index
Pochhammer reference, the kernels against schoolbook products, and the
evaluator as a whole against the plain tree walk it replaced: the same
coefficients, or the same exception with the same message.
"""

import itertools
import math
import random
import sys
import time

import pytest

from conftest import (
    outcome, reference_evaluate, reference_inverse, reference_pochhammer, reference_product,
)
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
            "poch(q^1, q^2) / poch(q^1, q^4)",
            "poch(q^3, q^4) * poch(q^1, q^5)",
            "subst(poch(q^1, q^4) * poch(q^2, q^2), -q^1)",
        ))

    def test_nothing_to_lower_is_its_own_rest(self):
        self.assert_no_normal_form(
            ("1 / (2 + q^1)", "theta{n in Z}(1; n*n) * poch(q^1, q^4)", "(1 - q^1)^-3"))

    def test_rest_is_a_fixed_point(self):
        self.assert_no_normal_form(
            ("poch(q^1, q^1) / (poch(q^1, q^4) * (2 - q^3)) * theta{n in Z}(1; n*n)",))


def residue_chain(rng):
    """A product chain of (+-q^a; q^b) factors, a and b in 1..12.  For one
    stride b, each class of a with one gcd(a, b) is taken whole or left out,
    each under one sign and one op, which is an eta quotient (the product
    depends on gcd(n, 2b) alone); then up to two random factors, with a
    past b too, which mostly leave none."""
    b = rng.randint(1, 12)
    factors = []
    for d in (d for d in range(1, b + 1) if b % d == 0):
        op, sign = rng.choice("*/ "), rng.choice(["", "-"])
        if op != " ":
            factors += [(op, f"poch({sign}q^{a}, q^{b})") for a in range(1, b + 1)
                        if math.gcd(a, b) == d]
    factors += [(rng.choice("*/"), f"poch({rng.choice(['', '-'])}q^{rng.randint(1, 12)}, "
                                   f"q^{rng.randint(1, 12)})") for _ in range(rng.randint(0, 2))]
    rng.shuffle(factors)
    return "1" + "".join(f" {op} {factor}" for op, factor in factors)


class TestResidueRule:
    """(+-q^a; q^b) factors with no form of their own, merged by residue
    class on their common period."""

    def test_random_chains_equal_the_tree_walk(self):
        rng = random.Random(31)
        forms = []
        for _ in range(120):
            text = residue_chain(rng)
            order = rng.randint(NEWTON_BASE, 120)
            forms.append(normal_form(parse(text)))
            assert outcome(evaluate, text, order) == outcome(reference_evaluate, text, order), text
        merged = sum(form is not None for form in forms)
        assert 30 <= merged <= len(forms) - 30, merged

    def test_hexagonal_left_side_is_one_psi_minus_q_row(self):
        rec = next(rec for rec in bundled_manifest() if rec.id == "hexagonal-triple-product")
        assert etas(rec.lhs) == {1: 1, 2: -1, 4: 1}
        assert series._plan(((1, 1), (2, -1), (4, 1))) == ((ROWS[4][0], 1, 1),)
        assert expand(rec.lhs, 200) == reference_evaluate(parse(rec.lhs), 200)

    def test_a_large_period_gives_up_at_once(self):
        # the strides' lcm is about 10^10; reading c on it would not end
        text = "poch(q^1, q^99991) * poch(q^1, q^99989)"
        started = time.perf_counter()
        assert normal_form(parse(text)) is None
        assert time.perf_counter() - started < 0.5
        order = 2 * NEWTON_BASE
        assert outcome(evaluate, text, order) == outcome(reference_evaluate, text, order)


def random_theta(rng):
    """A theta over Z or N whose exponent is a*n*n + b*n (halved or not;
    b = a, |b| < a or any b in -4..4), n*n + n, 4*n*n + 3*n (f(q^2, 1)
    and f(q^7, q), no eta quotients), an inexact div or a constant past
    the order (a constant below it takes the scan 10^6 steps to refuse),
    and whose weight is one of the sign patterns the lowering reads,
    (-1)^(ceil2(n)) or (2*n+1)*(-1)^(n); alone, in a product with
    gf(pod), or under q -> -q^2."""
    a = rng.randint(1, 4)
    b = rng.choice([a, rng.randint(1 - a, a - 1), rng.randint(-4, 4)])
    quadratic = f"{a}*n*n {'+-'[b < 0]} {abs(b)}*n"
    exponent = rng.choice([
        quadratic, quadratic, f"({quadratic}) div 2", f"({quadratic}) div 2",
        "n*n + n", "4*n*n + 3*n", f"({a}*n*n + n) div {rng.randint(3, 5)}", str(rng.randint(301, 999)),
    ])
    weight = rng.choice(["1", "(-1)^(n)", f"(-1)^({exponent})", f"(-1)^(n + {exponent})",
                         "(-1)^(ceil2(n))", "(2*n+1)*(-1)^(n)"])
    theta = f"theta{{n in {rng.choice('ZN')}}}({weight}; {exponent})"
    return rng.choice([theta, theta, f"gf(pod) * {theta}", f"subst({theta}, -q^2)"])


class TestThetaRule:
    """Theta sums that are Jacobi triple products, lowered to eta vectors."""

    def test_random_thetas_equal_the_tree_walk(self):
        rng = random.Random(33)
        lowered = walked = 0
        for _ in range(1000):
            text = random_theta(rng)
            order = rng.randint(NEWTON_BASE, 300)
            assert outcome(evaluate, text, order) == outcome(reference_evaluate, text, order), text
            if normal_form(parse(text)) is None:
                walked += 1
            else:
                lowered += 1
        assert lowered >= 100 and walked >= 100, (lowered, walked)

    @pytest.mark.parametrize("text, vector", [
        ("theta{n in Z}(1; n*n)", {1: -2, 2: 5, 4: -2}),                         # phi(q)
        ("theta{n in Z}((-1)^(n); n*n)", {1: 2, 2: -1}),                         # phi(-q)
        ("theta{n in N}(1; (n*(n+1)) div 2)", {1: -1, 2: 2}),                    # psi(q)
        ("theta{n in N}((-1)^(ceil2(n)); (n*(n+1)) div 2)", {1: 1, 2: -1, 4: 1}),  # psi(-q)
        ("theta{n in Z}((-1)^(n); (n*(3*n+1)) div 2)", {1: 1}),                  # Euler
        ("theta{n in Z}((-1)^(n); 2*n*n + n)", {1: 1, 2: -1, 4: 1}),             # f(-q^3, -q)
        ("theta{n in Z}(1; 40*n*n)", {40: -2, 80: 5, 160: -2}),                  # phi(q^40)
        ("theta{j in N}(1; j*(j+1))", {2: -1, 4: 2}),                            # psi(q^2)
    ])
    def test_classical_thetas(self, text, vector):
        assert etas(text) == vector
        assert expand(text, 200) == reference_evaluate(parse(text), 200)

    @pytest.mark.parametrize("text", [
        "theta{n in Z}(1; n*n + n)",                      # f(q^2, 1) = 2 (-q^2; q^2)^2 (q^2; q^2)
        "theta{n in Z}(1; 4*n*n + 3*n)",                  # f(q^7, q)
        "theta{n in N}(1; n*n)",                          # half of phi, plus 1/2
        "theta{n in N}((-1)^(n); (n*(n+1)) div 2)",
        "theta{n in Z}(0 - 1; n*n)",
        "theta{n in Z}(1; n*n + 1)",
        "theta{n in N}(1; n div 2)",
        "theta{n in Z}(1; (n div 2) * 2 * n + n*n)",      # 1 div 2 is not exact
        "theta{n in Z}((-1)^((n div 2) * 2); n*n)",
        "theta{n in N}(1; 500)",
        "theta{n in Z}((2*n+1)*(-1)^(n); n*n)",
    ])
    def test_others_are_walked(self, text):
        assert normal_form(parse(text)) is None
        for order in (NEWTON_BASE, 100):
            assert outcome(evaluate, text, order) == outcome(reference_evaluate, text, order)

    def test_a_theta_the_walk_refuses_is_not_lowered(self):
        # read on n = 4m + r this exponent is n*n, but the walk reads it on
        # n = 2m + r, where the (-1)^ argument has no fixed parity
        text = "theta{n in Z}(1; n*n + ((-1)^((n*(n+1)) div 2) - (-1)^((n*(n+1)) div 2)))"
        assert normal_form(parse(text)) is None
        with pytest.raises(dsl.EvalError, match="cannot fix a ceil2 or"):
            expand(text, 100)

    @pytest.mark.parametrize("left, right", [
        (dsl.NAMED_THETA["phi"], "theta{n in Z}(1; n*n+n)"),
        (dsl.NAMED_THETA["psi"], "poch(q^2,q^2)/poch(q^1,q^1)"),
    ])
    def test_false_pairs_get_different_forms(self, left, right):
        assert normal_form(parse(left)) != normal_form(parse(right))
        assert expand(left, 100) != expand(right, 100)


# Thirty-nine bundled records have equal normal forms on both sides, so
# their two sides agree at every order once the rewrite rules hold: the
# eighteen of products alone, and twenty-one with a theta side that the
# Jacobi triple product lowers.
# The other six exact records have a theta weighted by 2n+1, 6n+1 or
# 3n+1, or a ceil2 exponent; test_bundled_sides_equal_the_tree_walk checks
# every side term by term.
EQUAL_NORMAL_FORMS = {
    "pod-product-ratio", "pod-product-mod4", "pod-jacobi-product",
    "pod-ped-convolution", "pod-qodd-p-convolution", "qodd-pod-pentagonal",
    "qodd-peo-alternating", "afun-product-recip", "afun-product-split",
    "pod-afun-opbar", "opbar-product", "opodd-product",
    "pod-opodd-alternating", "qeo-pod-convolution", "pod-p2mod4-p",
    "pod-p-quartic", "p-pod-qodd-cubic", "eobar-product",
    # a theta side, lowered by the Jacobi triple product
    "phi-double-product", "phi-eta-quotient", "psi-product", "phi-neg-product",
    "phi-neg-substitution", "psi-neg-product", "psi-neg-alt-product",
    "euler-pentagonal", "pentagonal-unsigned", "hexagonal-triple-product",
    "hexagonal-reindex", "pod-tri-recurrence", "qodd-pod-pentagonal-theta",
    "triangular-sum-product", "opodd-pod-triangular", "pod-3square-pentagonal",
    "pod-cubic-square", "pod-cubic-triangular", "qodd3-pod-square",
    "eobar-pod-p-triangular", "pod-square-p3",
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

    def test_below_the_cutoff_the_tree_is_walked(self, calls, dense_products):
        # the walk scales the inverse by the constant 1: a mul, no dense product
        expand("1 / poch(q^1, q^1)", NEWTON_BASE - 1)
        assert calls == ["pochhammer", "inverse", "mul"]
        assert dense_products == []


@pytest.fixture
def passes(monkeypatch):
    """The names of the passes run, in order: the row passes "_times" and
    "_divide", and "_eta_power" for a Miller pass."""
    seen = []
    for name in ("_times", "_divide", "_eta_power"):
        kernel = getattr(series, name)
        monkeypatch.setattr(
            series, name, lambda *row, name=name, kernel=kernel: seen.append(name) or kernel(*row))
    return seen


@pytest.mark.usefixtures("cold_memo")
class TestMemo:
    """eta_quotient on a base of 1 keeps each whole plan's expansion at the
    highest order asked, answers any order up to it, and resumes a plan
    from its longest prefix stored at its order or above."""

    @pytest.mark.parametrize("order", [NEWTON_BASE, 300])
    def test_warm_memo_equals_the_tree_walk(self, order, cold_memo):
        sides = [parse(text) for rec in bundled_manifest() for text in (rec.lhs, rec.rhs)]
        sides = [node for node in sides if normal_form(node) is not None]
        for node in sides:
            evaluate(node, order)
        stored = len(cold_memo.entries)
        for node in reversed(sides):
            got, expected = evaluate(node, order), reference_evaluate(node, order)
            assert got == expected, pretty(node)
        assert stored == len(cold_memo.entries) < len(sides)

    def test_two_spellings_of_one_vector_share_an_entry(self, cold_memo):
        pod = evaluate(parse("gf(pod)"), ORDER)
        spelled = evaluate(parse("poch(-q^1, q^2) / poch(q^2, q^2)"), ORDER)
        assert spelled is pod
        assert len(cold_memo.entries) == 1

    def test_a_hit_builds_no_series(self, cold_memo, monkeypatch):
        # a whole quotient reaches the memo with no base of 1 built for it
        node = parse("gf(pod)")
        first = evaluate(node, 1000)
        sizes = []
        init = Series.__init__

        def counted(self, coeffs):
            coeffs = tuple(coeffs)
            sizes.append(len(coeffs))
            init(self, coeffs)

        monkeypatch.setattr(Series, "__init__", counted)
        assert evaluate(node, 1000) is first
        assert sizes == []

    def test_each_order_has_its_own_entry(self, cold_memo, passes):
        # one entry per plan: order 41 replaces order 40's, and holds it
        node = parse("gf(pod)")
        for order in (40, 41):
            assert evaluate(node, order) == reference_evaluate(node, order)
        assert [value.order for value, _ in cold_memo.entries.values()] == [41]
        passes.clear()
        got = evaluate(node, 40)
        assert passes == []
        cold_memo.clear()
        assert got == evaluate(node, 40)

    def test_a_lower_order_runs_no_pass(self, cold_memo, passes):
        # a Miller pass, a product by phi(q) and a division by psi(-q), then none
        node = parse("poch(q^1, q^1)^9 * gf(pod) * theta{n in Z}(1; n*n)")
        evaluate(node, 300)
        assert passes == ["_eta_power", "_times", "_divide"]
        passes.clear()
        for order in (300, 299, 120, NEWTON_BASE):
            assert evaluate(node, order) == reference_evaluate(node, order)
        assert passes == []

    def test_a_prefix_at_a_higher_order_resumes_a_longer_plan(self, passes):
        # gf(p)'s one division at order 1000 is the first of gf(cubic)'s at 300
        evaluate(parse("gf(p)"), 1000)
        assert passes == ["_divide"]
        got = evaluate(parse("gf(cubic)"), 300)
        assert passes == ["_divide", "_divide"]
        assert got == reference_evaluate(parse("gf(cubic)"), 300)
        # and gf(cubic)'s entry at 300 does not serve order 301
        evaluate(parse("gf(cubic)"), 301)
        assert passes == ["_divide", "_divide", "_divide"]

    def test_a_replacement_keeps_the_byte_count(self, cold_memo, monkeypatch):
        def size(value):
            return sys.getsizeof(value.coeffs) + sum(map(int.__sizeof__, value.coeffs))

        steps = (("gf(pod)", 40), ("gf(p)", 300), ("gf(pod)", 300))
        for text, order in steps:
            evaluate(parse(text), order)
        p, pod = evaluate(parse("gf(p)"), 300), evaluate(parse("gf(pod)"), 300)
        # the replacement is the most recently used entry
        assert [value for value, _ in cold_memo.entries.values()] == [p, pod]
        assert cold_memo.bytes == size(p) + size(pod) == sum(size for _, size in cold_memo.entries.values())
        # room for both at 300 but one byte less: pod's replacement drops p
        monkeypatch.setattr(series, "ETA_MEMO_BYTES", size(p) + size(pod) - 1)
        cold_memo.clear()
        for text, order in steps:
            evaluate(parse(text), order)
            assert cold_memo.bytes <= series.ETA_MEMO_BYTES
            assert cold_memo.bytes == sum(size for _, size in cold_memo.entries.values())
        assert [value for value, _ in cold_memo.entries.values()] == [pod]

    @pytest.mark.parametrize("seed", range(4))
    def test_any_order_sequence_equals_a_cold_expansion(self, seed, cold_memo):
        # each vector at random, then descending, then repeated orders,
        # the vectors interleaved and often sharing a plan prefix
        rng = random.Random(seed)
        vectors = [{rng.randint(1, 12): rng.randint(-7, 7) for _ in range(rng.randint(1, 3))} for _ in range(5)]
        orders = [rng.randint(0, 200) for _ in range(10)]
        orders += sorted(orders, reverse=True) + [orders[0]] * 3
        calls = [(vector, order) for order in orders for vector in rng.sample(vectors, len(vectors))]
        cold = []
        for vector, order in calls:
            cold_memo.clear()
            cold.append(series.eta_quotient(vector, order))
        cold_memo.clear()
        for (vector, order), expected in zip(calls, cold):
            got = series.eta_quotient(vector, order)
            assert got == expected, (vector, order)
            assert cold_memo.bytes <= series.ETA_MEMO_BYTES
            assert cold_memo.bytes == sum(size for _, size in cold_memo.entries.values())
            if order <= 90:
                text = "1" + "".join(f" {'*' if a > 0 else '/'} poch(q^{b}, q^{b})^{abs(a)}"
                                     for b, a in vector.items() if a)
                assert got == reference_evaluate(parse(text), order), (vector, order)

    def test_equal_vector_record_expands_once(self, passes):
        # both sides are pod's vector: one division by psi(-q), then a hit
        rec = next(rec for rec in bundled_manifest() if rec.id == "pod-product-ratio")
        assert dsl.check(parse(rec.lhs), parse(rec.rhs), rec.order) is None
        assert passes == ["_divide"]

    def test_a_prefix_hit_runs_only_the_rest_of_the_plan(self, passes):
        # gf(p) is one Euler division; gf(cubic) is that one and a second
        # at stride 2, so it resumes from gf(p)'s entry
        evaluate(parse("gf(p)"), 300)
        assert passes == ["_divide"]
        got = evaluate(parse("gf(cubic)"), 300)
        assert passes == ["_divide", "_divide"]
        assert got == reference_evaluate(parse("gf(cubic)"), 300)

    def test_a_base_other_than_1_is_not_stored(self, cold_memo):
        base = expand("1 - q^1", ORDER)
        assert series.eta_quotient({1: -1}, ORDER, base) == reference_evaluate(parse("(1 - q^1) * gf(p)"), ORDER)
        assert not cold_memo.entries

    def test_eviction_keeps_the_byte_bound(self, cold_memo, monkeypatch):
        texts = ["gf(p)", "gf(pod)", "gf(p3)", "gf(opodd)", "gf(eobar)"]
        sizes = []
        for text in texts:
            evaluate(parse(text), 300)
            sizes.append(cold_memo.bytes - sum(sizes))
        assert len(cold_memo.entries) == len(texts)
        bound = sizes[-1] + sizes[-2]  # room for the last two entries alone
        monkeypatch.setattr(series, "ETA_MEMO_BYTES", bound)
        cold_memo.clear()
        for text in texts:
            got = evaluate(parse(text), 300)
            assert cold_memo.bytes <= bound
            assert cold_memo.bytes == sum(size for _, size in cold_memo.entries.values())
            assert got == reference_evaluate(parse(text), 300)
        assert [value for value, _ in cold_memo.entries.values()] == [
            evaluate(parse(text), 300) for text in texts[-2:]]
        # a series past the bound on its own is not stored
        monkeypatch.setattr(series, "ETA_MEMO_BYTES", 1000)
        cold_memo.clear()
        evaluate(parse("gf(pod)"), 300)
        assert not cold_memo.entries and cold_memo.bytes == 0


def schoolbook(base, exponents):
    """base * prod (q^b; q^b)^{a_b}, one reference factor or inverse at a time."""
    expected = base
    for b, a in exponents.items():
        factor = reference_pochhammer(1, b, b, base.order)
        if a < 0:
            factor = reference_inverse(factor)
        for _ in range(abs(a)):
            expected = expected * factor
    return expected


class TestEtaKernels:
    @pytest.mark.parametrize("seed", range(4))
    def test_equal_the_schoolbook_product(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            order = rng.randint(0, 90)
            exponents = {rng.randint(1, 6): rng.randint(-7, 7) for _ in range(rng.randint(0, 3))}
            base = Series([rng.randint(-5, 5) for _ in range(order + 1)])
            assert series.eta_quotient(exponents, order, base) == schoolbook(base, exponents), exponents

    @pytest.mark.parametrize("seed", range(4))
    def test_stride_chains_equal_the_schoolbook_product(self, seed):
        # the theta rows span b, 2b and 4b, so whole chains exercise them
        rng = random.Random(seed)
        for _ in range(20):
            order = rng.randint(0, 90)
            b = rng.randint(1, 3)
            chain = rng.choice([(b, 2 * b, 4 * b), (3, 6, 12)])
            exponents = {k: rng.randint(-7, 7) for k in chain}
            base = Series([rng.randint(-5, 5) for _ in range(order + 1)])
            assert series.eta_quotient(exponents, order, base) == schoolbook(base, exponents), exponents

    def test_large_exponents_take_one_pass(self):
        started = time.perf_counter()
        got = series.eta_quotient({1: 10**6}, 200)
        assert time.perf_counter() - started < 0.5
        assert got[1] == -(10**6)
        assert got[2] == 10**6 * (10**6 - 3) // 2

    def test_a_stride_past_the_order_is_one(self):
        # no cost is taken of a stride too large for a float
        got = series.eta_quotient({1: -1, 10**400: 1, 3 * 10**400: -2}, 40)
        assert got == reference_inverse(reference_pochhammer(1, 1, 1, 40))

    @pytest.mark.parametrize("etas", [{1: 10**6, 2: -10**6}, {1: -10**6, 2: 2 * 10**6}])
    def test_large_exponents_on_a_chain_are_two_miller_factors(self, etas):
        started = time.perf_counter()
        got = series.eta_quotient(etas, 200)
        assert time.perf_counter() - started < 0.5
        # Miller's expansions of (q; q)^a1 and (q^2; q^2)^a2, multiplied
        halves = [0] * 201
        halves[::2] = series._eta_power(etas[2], 100)
        assert got == Series(series._eta_power(etas[1], 200)) * Series(halves)

    @pytest.mark.parametrize("a", range(-12, 13))
    def test_miller_recurrence_is_the_eta_power(self, a):
        # (q; q)^a as |a| reference products of (q; q) or of its inverse,
        # with a = 0 and +-1..+-3 too, which no plan sends to a Miller pass;
        # an expansion to a lower limit is the truncated expansion
        factor = reference_pochhammer(1, 1, 1, 120)
        if a < 0:
            factor = reference_inverse(factor)
        expected = constant(1, 120)
        for _ in range(abs(a)):
            expected = reference_product(expected, factor)
        for limit in range(121):
            assert series._eta_power(a, limit) == list(expected.coeffs[: limit + 1]), limit

    @pytest.mark.parametrize("etas, error, message", [
        ({0: 1}, ValueError, "eta quotient keys must be >= 1, got 0"),
        ({1: 1, -2: 1}, ValueError, "eta quotient keys must be >= 1, got -2"),
        ({-2: 0}, ValueError, "eta quotient keys must be >= 1, got -2"),
        ({1: 1.5}, TypeError, "eta quotient exponents must be int, got float"),
        ({1: 1, 2: "3"}, TypeError, "eta quotient exponents must be int, got str"),
        ({1.5: 1}, TypeError, "eta quotient keys must be int, got float"),
        ({2.0: 1}, TypeError, "eta quotient keys must be int, got float"),
        ({"2": 1}, TypeError, "eta quotient keys must be int, got str"),
    ], ids=["zero-key", "negative-key", "negative-key-zero-exponent", "float-exponent", "str-exponent",
            "float-key", "integral-float-key", "str-key"])
    def test_bad_vectors_are_refused(self, etas, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            series.eta_quotient(etas, 40)

    @pytest.mark.parametrize("order, base, message", [
        (-1, None, "order must be >= 0, got -1"),
        (41, constant(1, 40), "base order 40 differs from order 41"),
    ])
    def test_bad_orders_are_refused(self, order, base, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            series.eta_quotient({1: 1}, order, base)


def row_factors(row):
    """The Pochhammer factors of a row, as reference_pochhammer's (sign, a, b):
    f(s q^u, s q^v) = (-s q^u; q^M) (-s q^v; q^M) (q^M; q^M) with M = u + v."""
    u, v, s = row[0].args
    return [(-s, u, u + v), (-s, v, u + v), (1, u + v, u + v)]


ROWS = series._ROWS
ROW_NAMES = ["euler", "phi(-q)", "phi(q)", "psi(q)", "psi(-q)"]


class TestRows:
    @pytest.mark.parametrize("row", ROWS, ids=ROW_NAMES)
    def test_term_list_is_the_product_of_its_factors(self, row):
        expected = constant(1, 300)
        for sign, a, b in row_factors(row):
            expected = reference_product(expected, reference_pochhammer(sign, a, b, 300))
        # a row reads 1 + k (sum q^plus - sum q^minus), and a truncated
        # series is the series at the lower order
        for limit in range(301):
            k, plus, minus = row[0](limit)
            got = [1] + [0] * limit
            for e in plus:
                got[e] += k
            for e in minus:
                got[e] -= k
            assert tuple(got) == expected.coeffs[: limit + 1], limit

    @pytest.mark.parametrize("row", ROWS, ids=ROW_NAMES)
    def test_vector_is_the_eta_quotient_of_its_factors(self, row):
        # c[n] is the exponent of (1 - q^n) in the product of the factors
        size = 48
        c = [0] * (size + 1)
        for sign, a, b in row_factors(row):
            for n in range(a, size + 1, b):
                if sign == 1:
                    c[n] += 1
                else:  # 1 + q^n = (1 - q^2n) / (1 - q^n)
                    c[n] -= 1
                    if 2 * n <= size:
                        c[2 * n] += 1
        # prod (q^b; q^b)^{a_b} has c(n) = sum_{b | n} a_b
        vector = {}
        for b in range(1, size + 1):
            a = c[b] - sum(vector.get(d, 0) for d in range(1, b) if b % d == 0)
            if a:
                vector[b] = a
        assert vector == row[1]
        # where every factor has a normal form of its own, they merge to it
        forms = [dsl._poch_etas(*factor) for factor in row_factors(row)]
        if None not in forms:
            merged = {}
            for form in forms:
                merged = dsl._merged(merged, form, 1)
            assert merged == row[1]

    @pytest.mark.parametrize("row", ROWS, ids=ROW_NAMES)
    def test_has_one_weight_scale(self, row):
        scale = 2 if ROW_NAMES[ROWS.index(row)].startswith("phi") else 1
        for limit in range(1, 201):
            k, plus, minus = row[0](limit)
            assert k == scale, limit
            assert plus == sorted(plus) and minus == sorted(minus), limit
            assert not set(plus) & set(minus), limit

    @pytest.mark.parametrize("row", ROWS, ids=ROW_NAMES)
    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_divide_undoes_times(self, row, stride):
        rng = random.Random(stride)
        c = [rng.randint(-10**6, 10**6) for _ in range(301)]
        k, plus, minus = row[0](300 // stride)
        scaled = (k, [stride * e for e in plus], [stride * e for e in minus])
        assert series._divide(series._times(c, *scaled), *scaled) == c

    @pytest.mark.parametrize("row", ROWS, ids=ROW_NAMES)
    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_times_on_a_sparse_base_is_the_schoolbook_product(self, monkeypatch, row, stride):
        # the zero series, constants, every row seeded from 1, random bases
        # on either side of the density cutoff, and terms near the end,
        # which the truncation cuts off; each equals the schoolbook product
        # by the row, takes the branch its density picks, and is undone by
        # _divide
        by_term = []
        times_by_term = series._times_by_term
        monkeypatch.setattr(series, "_times_by_term", lambda *args: by_term.append(1) or times_by_term(*args))
        rng = random.Random(stride)
        for size in (1, 2, 9, 301):
            k, plus, minus = row[0]((size - 1) // stride)
            scaled = (k, [stride * e for e in plus], [stride * e for e in minus])
            multiplier = [1] + [0] * (size - 1)
            for e in scaled[1]:
                multiplier[e] += k
            for e in scaled[2]:
                multiplier[e] -= k
            bases = [[x] + [0] * (size - 1) for x in (0, 1, -1, 7, -7)]
            for seeded in ROWS:
                for seed_stride in (1, 2, 4):
                    kk, pp, mm = seeded[0]((size - 1) // seed_stride)
                    bases.append(series._times(
                        [1] + [0] * (size - 1), kk, [seed_stride * e for e in pp], [seed_stride * e for e in mm]))
            below = (size - 1) // series.SPARSE_BASE
            for terms in (below, below + 1):
                base = [0] * size
                for i in rng.sample(range(size), min(terms, size)):
                    base[i] = rng.choice((-1, 1)) * rng.randint(1, 10**6)
                bases.append(base)
            bases.append([0] * (size - 3) + [5, -3, 2][-size:])
            for base in bases:
                by_term.clear()
                got = series._times(base, *scaled)
                assert got == list(reference_product(Series(base), Series(multiplier))), base
                sparse = series.SPARSE_BASE * (size - base.count(0)) < size
                assert by_term == [1] * sparse, base
                assert series._divide(got, *scaled) == base, base


def plan_vector(plan):
    """The vector a plan applies: each Miller pass's (b, a_b) and each row
    pass's row at its stride and direction."""
    rows = {row[0]: row[1] for row in ROWS}
    rows[None] = {1: 1}
    vector = {}
    for builder, b, a in plan:
        for k, x in rows[builder].items():
            vector[b * k] = vector.get(b * k, 0) + a * x
    return {b: a for b, a in vector.items() if a}


def plan_cost(plan):
    """A plan's cost in the planner's model: each Miller pass's, and each
    row pass's row cost over sqrt(stride)."""
    costs = {row[0]: row[2] for row in ROWS}
    return sum(series._alone(b, a)[0] if builder is None else costs[builder] / math.sqrt(b)
               for builder, b, a in plan)


# The pass sequence of every vector the bundled sides expand at order 300,
# 28 whole sides and 1 mixed product that is also whole (gf(pod) times a
# theta weighted by 3n+1 or 2n+1), with the rows named as in ROW_NAMES; a
# Miller pass would read (None, b, a_b).
# Each lists its Miller passes, then its row multiplies, then its row
# divides; the test checks the passes apart from their order first.
# The greedy planner misses a cheaper plan for two of them, {1: 1, 4: -1}
# (2.45 cost units against 2.12) and {1: -1, 2: -1} (2.79 against 2.12);
# a better planner moves these pins.
BUNDLED_PLANS = {
    (): (),
    ((1, -3), (2, 6), (4, -3)): (("phi(q)", 1, 1), ("psi(-q)", 1, -1)),
    ((1, -2), (2, 1)): (("phi(-q)", 1, -1),),
    ((1, -2), (2, 1), (4, -1)): (("phi(-q)", 1, -1), ("euler", 4, -1)),
    ((1, -2), (2, 2), (4, -2)): (("phi(-q)", 1, -1), ("psi(q)", 2, -1)),
    ((1, -2), (2, 3), (4, -1)): (("phi(-q)", 2, 1), ("phi(-q)", 1, -1)),
    ((1, -2), (2, 5), (4, -2)): (("phi(q)", 1, 1),),
    ((1, -1),): (("euler", 1, -1),),
    ((1, -1), (2, -1)): (("euler", 1, -1), ("euler", 2, -1)),
    ((1, -1), (2, -1), (4, 2)): (("psi(q)", 2, 1), ("euler", 1, -1)),
    ((1, -1), (2, 1), (3, 2), (4, -1), (6, -1)): (("phi(-q)", 3, 1), ("psi(-q)", 1, -1)),
    ((1, -1), (2, 1), (3, 2), (6, -1)): (("euler", 4, 1), ("phi(-q)", 3, 1), ("psi(-q)", 1, -1)),
    ((1, -1), (2, 1), (4, -1)): (("psi(-q)", 1, -1),),
    ((1, -1), (2, 2)): (("psi(q)", 1, 1),),
    ((1, -1), (2, 2), (4, -1)): (("psi(q)", 1, 1), ("euler", 4, -1)),
    ((1, -1), (2, 4), (4, -1)): (("psi(q)", 1, 1), ("phi(-q)", 2, 1)),
    ((1, -1), (4, -1)): (("euler", 1, -1), ("euler", 4, -1)),
    ((1, 1),): (("euler", 1, 1),),
    ((1, 1), (2, -1), (4, 1)): (("psi(-q)", 1, 1),),
    ((1, 1), (4, -1)): (("euler", 1, 1), ("euler", 4, -1)),
    ((1, 1), (4, 1)): (("euler", 1, 1), ("euler", 4, 1)),
    ((1, 2), (2, -1)): (("phi(-q)", 1, 1),),
    ((1, 2), (2, -1), (4, 2)): (("phi(-q)", 1, 1), ("phi(-q)", 4, 1), ("euler", 8, 1)),
    ((1, 3),): (("phi(-q)", 1, 1), ("euler", 1, 1), ("euler", 2, 1)),
    ((1, 5), (2, -2)): (("phi(-q)", 1, 1), ("phi(-q)", 1, 1), ("euler", 1, 1)),
    ((2, -3),): (("phi(-q)", 2, -1), ("euler", 2, -1), ("euler", 4, -1)),
    ((2, -2), (4, 3)): (("phi(-q)", 4, 1), ("euler", 8, 1), ("phi(-q)", 2, -1)),
    ((2, -1),): (("euler", 2, -1),),
}


def seeded_vectors():
    """Planner inputs, as sorted nonzero (b, a_b) pairs: whole windows of
    three strides, which cover every chain of strides in
    {1, 2, 3, 4, 6, 8, 12} but (1, 2, 4, 8), and seeded vectors over all
    seven strides for the rest."""
    vectors = [dict(zip(window, exponents))
               for window in ((1, 2, 4), (2, 4, 8), (3, 6, 12))
               for exponents in itertools.product(range(-7, 8), repeat=3)]
    rng = random.Random(0)
    vectors += [{b: rng.randint(-7, 7) for b in (1, 2, 3, 4, 6, 8, 12)} for _ in range(1000)]
    return [tuple(sorted((b, a) for b, a in vector.items() if a)) for vector in vectors]


class TestPlanner:
    def test_pod_is_one_division(self, passes, cold_memo):
        got = evaluate(parse("gf(pod)"), 1000)
        assert passes == ["_divide"]
        assert got.coeffs[:101] == reference_evaluate(parse("gf(pod)"), 100).coeffs

    def test_no_plan_costs_more_than_the_kernels_alone(self):
        # Every row spans b, 2b and 4b at most, so the planner plans each
        # chain of one odd part on its own (see seeded_vectors)
        for key in seeded_vectors():
            plan = series._plan(key)
            assert plan_vector(plan) == dict(key), key
            kernels = sum(series._alone(b, a)[0] for b, a in key)
            assert plan_cost(plan) <= kernels + 1e-9, key

    @pytest.mark.parametrize("vector, passes", [
        ({1: -1, 2: 1, 4: -1}, 1),   # pod: 1 / psi(-q)
        ({1: -2, 2: 5, 4: -2}, 1),   # phi(q)
        ({1: 2, 2: -1}, 1),          # phi(-q)
        ({1: -1, 2: 2}, 1),          # psi(q)
        ({1: -1, 2: 4, 4: -1}, 2),   # Miller's kernel is not needed
    ])
    def test_theta_quotients_take_few_passes(self, vector, passes):
        planned = series._plan(tuple(sorted(vector.items())))
        millers = [p for p in planned if p[0] is None]
        assert (millers, len(planned)) == ([], passes)

    def test_every_bundled_plan_is_pinned(self, monkeypatch, cold_memo):
        seen = set()
        kernel = dsl.eta_quotient
        monkeypatch.setattr(
            dsl, "eta_quotient", lambda etas, *rest: seen.add(tuple(sorted(etas.items()))) or kernel(etas, *rest))
        for rec in bundled_manifest():
            for text in (rec.lhs, rec.rhs):
                evaluate(parse(text), 300)
        assert seen == set(BUNDLED_PLANS)
        names = {row[0]: name for row, name in zip(ROWS, ROW_NAMES)}
        names[None] = None
        for vector, passes in BUNDLED_PLANS.items():
            planned = tuple((names[builder], b, a) for builder, b, a in series._plan(vector))
            # the same passes, then the same order
            assert sorted(planned, key=repr) == sorted(passes, key=repr), vector
            assert planned == passes, vector

    def test_miller_passes_then_multiplies_then_divides(self):
        # on a base of 1 the first multiply is then the row itself, term by
        # term; a divide first would have made the base dense
        def kind(p):
            return 0 if p[0] is None else 1 if p[2] > 0 else 2

        for vector in list(BUNDLED_PLANS) + seeded_vectors():
            kinds = [kind(p) for p in series._plan(vector)]
            assert kinds == sorted(kinds), vector

    def test_a_constant_base_is_multiplied_term_by_term(self, monkeypatch, cold_memo):
        # each _times call of the bundled suite at order 1000 on a base with
        # at most one nonzero coefficient takes the term-by-term branch
        calls = []
        times, times_by_term = series._times, series._times_by_term

        def counted(c, *row):
            calls.append([len(c) - c.count(0), False])
            return times(c, *row)

        def by_term(c, *row):
            calls[-1][1] = True
            return times_by_term(c, *row)

        monkeypatch.setattr(series, "_times", counted)
        monkeypatch.setattr(series, "_times_by_term", by_term)
        for rec in bundled_manifest():
            for text in (rec.lhs, rec.rhs):
                evaluate(parse(text), 1000)
        constant_bases = [by_term for terms, by_term in calls if terms <= 1]
        assert constant_bases and all(constant_bases)

    @pytest.mark.parametrize("etas, products", [
        ({1: 10**6}, 0),
        ({1: 10**6, 2: -10**6}, 1),
        ({1: 1, 2: 10**6}, 0),  # planned as a row pass, psi(q), and a Miller pass
        ({5: 6}, 0),  # one Miller pass, where the prices alone plan six Euler passes
    ])
    def test_miller_passes_come_first(self, dense_products, cold_memo, etas, products):
        # on a base of 1 the first Miller pass is a product by a constant,
        # a scale and no dense product; a row pass before it would force one
        series.eta_quotient(etas, 200)
        assert len(dense_products) == products

    def test_a_lone_leftover_past_3_is_one_miller_pass(self):
        # the prices alone would plan (q^5; q^5)^6 as six Euler passes at
        # stride 5; one Miller pass on a base of 1 takes no dense product
        assert series._plan(((5, 6),)) == ((None, 5, 6),)

    def test_each_chain_is_planned_on_its_own(self, monkeypatch):
        # 300 keys in 150 chains.  Chain by chain, _peel sees one chain at a
        # time and the greedy makes 48,130 _alone calls; one greedy over the
        # whole vector makes 3,612,450, a count that grows with the square
        # of the key count.
        vector = tuple((b, 2 if b % 3 else -2) for b in range(1, 301))
        peeled = []
        peel = series._peel
        monkeypatch.setattr(series, "_peel", lambda rest: peeled.append(sorted(rest)) or peel(rest))
        series._plan.cache_clear()
        series._alone.cache_clear()
        plan = series._plan(vector)
        priced = series._alone.cache_info()
        assert all(len({b // (b & -b) for b in keys}) == 1 for keys in peeled), peeled
        assert sorted(b for keys in peeled for b in keys) == [b for b, _ in vector]
        assert len(peeled) == 150
        assert priced.hits + priced.misses < 100_000
        assert plan_vector(plan) == dict(vector)
