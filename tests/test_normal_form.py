"""The eta-quotient normal form, its sparse kernels and the evaluator.

Each rewrite rule is checked as an identity against the per-index
Pochhammer reference, the kernels against schoolbook products, and the
evaluator as a whole against the plain tree walk it replaced: the same
coefficients, or the same exception with the same message.
"""

import itertools
import math
import random
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
            assert series.eta_quotient(base, exponents) == schoolbook(base, exponents), exponents

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
            assert series.eta_quotient(base, exponents) == schoolbook(base, exponents), exponents

    def test_large_exponents_take_one_pass(self):
        started = time.perf_counter()
        got = series.eta_quotient(constant(1, 200), {1: 10**6})
        assert time.perf_counter() - started < 0.5
        assert got[1] == -(10**6)
        assert got[2] == 10**6 * (10**6 - 3) // 2

    def test_a_stride_past_the_order_is_one(self):
        # no cost is taken of a stride too large for a float
        got = series.eta_quotient(constant(1, 40), {1: -1, 10**400: 1, 3 * 10**400: -2})
        assert got == reference_inverse(reference_pochhammer(1, 1, 1, 40))

    @pytest.mark.parametrize("etas", [{1: 10**6, 2: -10**6}, {1: -10**6, 2: 2 * 10**6}])
    def test_large_exponents_on_a_chain_are_two_miller_factors(self, etas):
        started = time.perf_counter()
        got = series.eta_quotient(constant(1, 200), etas)
        assert time.perf_counter() - started < 0.5
        # Miller's expansions of (q; q)^a1 and (q^2; q^2)^a2, multiplied
        halves = [0] * 201
        halves[::2] = series._eta_power(etas[2], 100)
        assert got.coeffs == (Series(series._eta_power(etas[1], 200)) * Series(halves)).coeffs


def row_factors(row):
    """The Pochhammer factors of a row, as reference_pochhammer's (sign, a, b):
    f(s q^u, s q^v) = (-s q^u; q^M) (-s q^v; q^M) (q^M; q^M) with M = u + v,
    and Jacobi's cube (q; q)^3."""
    if row is series._JACOBI:
        return [(1, 1, 1)] * 3
    u, v, s = row[0].args
    return [(-s, u, u + v), (-s, v, u + v), (1, u + v, u + v)]


ROWS = [*series._ROWS, series._JACOBI]
ROW_NAMES = ["euler", "phi(-q)", "phi(q)", "psi(q)", "psi(-q)", "jacobi"]


class TestRows:
    @pytest.mark.parametrize("row", ROWS, ids=ROW_NAMES)
    def test_term_list_is_the_product_of_its_factors(self, row):
        expected = constant(1, 300)
        for sign, a, b in row_factors(row):
            expected = reference_product(expected, reference_pochhammer(sign, a, b, 300))
        terms = [(e, w) for e, w in enumerate(expected.coeffs) if w and e]
        # a truncated series is the series at the lower order
        for limit in range(301):
            assert row[0](limit) == [(e, w) for e, w in terms if e <= limit], limit

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
# 27 whole sides and 8 mixed products of which 4 are also whole, with the
# rows named as in ROW_NAMES; a Miller pass would read (None, b, a_b).
# The greedy planner misses a cheaper plan for four of them (psi(q) times
# phi(-q^2) for {1: -1, 2: 4, 4: -1}, for one); a better planner moves
# these pins.
BUNDLED_PLANS = {
    (): (),
    ((1, -3), (2, 6), (4, -3)): (("phi(q)", 1, 1), ("psi(-q)", 1, -1)),
    ((1, -2), (2, 1)): (("phi(-q)", 1, -1),),
    ((1, -2), (2, 1), (4, -1)): (("phi(-q)", 1, -1), ("euler", 4, -1)),
    ((1, -2), (2, 2), (4, -2)): (("phi(q)", 1, 1), ("jacobi", 2, -1)),
    ((1, -2), (2, 3), (4, -1)): (("phi(-q)", 1, -1), ("phi(-q)", 2, 1)),
    ((1, -2), (2, 5), (4, -2)): (("phi(q)", 1, 1),),
    ((1, -1),): (("euler", 1, -1),),
    ((1, -1), (2, -1)): (("euler", 1, -1), ("euler", 2, -1)),
    ((1, -1), (2, -1), (4, 2)): (("psi(q)", 2, 1), ("euler", 1, -1)),
    ((1, -1), (2, 1), (3, 2), (6, -1)): (("psi(-q)", 1, -1), ("euler", 4, 1), ("phi(-q)", 3, 1)),
    ((1, -1), (2, 1), (4, -1)): (("psi(-q)", 1, -1),),
    ((1, -1), (2, 2)): (("psi(q)", 1, 1),),
    ((1, -1), (2, 2), (4, -1)): (("psi(q)", 1, 1), ("euler", 4, -1)),
    ((1, -1), (2, 4), (4, -1)): (("psi(-q)", 1, -1), ("jacobi", 2, 1)),
    ((1, -1), (4, -1)): (("euler", 1, -1), ("euler", 4, -1)),
    ((1, 1),): (("euler", 1, 1),),
    ((1, 1), (2, -1), (4, 1)): (("psi(-q)", 1, 1),),
    ((1, 1), (4, -1)): (("euler", 1, 1), ("euler", 4, -1)),
    ((1, 1), (4, 1)): (("euler", 1, 1), ("euler", 4, 1)),
    ((1, 2), (2, -1)): (("phi(-q)", 1, 1),),
    ((1, 2), (2, -1), (4, 2)): (("phi(-q)", 1, 1), ("phi(-q)", 4, 1), ("euler", 8, 1)),
    ((1, 3),): (("jacobi", 1, 1),),
    ((1, 5), (2, -2)): (("phi(-q)", 1, 1), ("phi(-q)", 1, 1), ("euler", 1, 1)),
    ((2, -3),): (("jacobi", 2, -1),),
    ((2, -2), (4, 3)): (("phi(-q)", 2, -1), ("phi(-q)", 4, 1), ("euler", 8, 1)),
    ((2, -1),): (("euler", 2, -1),),
    ((2, -1), (4, -1)): (("euler", 2, -1), ("euler", 4, -1)),
    ((2, 1),): (("euler", 2, 1),),
    ((4, -1),): (("euler", 4, -1),),
    ((4, 1),): (("euler", 4, 1),),
}


class TestPlanner:
    def test_pod_is_one_division(self, monkeypatch):
        seen = []
        for name in ("_times", "_divide"):
            kernel = getattr(series, name)
            monkeypatch.setattr(
                series, name, lambda c, terms, name=name, kernel=kernel: seen.append(name) or kernel(c, terms))
        dsl._eta_expansion.cache_clear()
        got = evaluate(parse("gf(pod)"), 1000)
        dsl._eta_expansion.cache_clear()
        assert seen == ["_divide"]
        assert got.coeffs[:101] == reference_evaluate(parse("gf(pod)"), 100).coeffs

    def test_no_plan_costs_more_than_the_kernels_alone(self):
        # Every row spans b, 2b and 4b at most, so the planner plans each
        # chain of one odd part on its own: whole windows of three strides
        # cover every chain of strides in {1, 2, 3, 4, 6, 8, 12} but
        # (1, 2, 4, 8), and seeded vectors over all seven strides the rest.
        def check(vector):
            key = tuple(sorted((b, a) for b, a in vector.items() if a))
            plan = series._plan(key)
            assert plan_vector(plan) == dict(key), key
            kernels = sum(series._alone(b, a)[0] for b, a in key)
            assert plan_cost(plan) <= kernels + 1e-9, key

        for window in ((1, 2, 4), (2, 4, 8), (3, 6, 12)):
            for exponents in itertools.product(range(-7, 8), repeat=3):
                check(dict(zip(window, exponents)))
        rng = random.Random(0)
        for _ in range(1000):
            check({b: rng.randint(-7, 7) for b in (1, 2, 3, 4, 6, 8, 12)})

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

    def test_every_bundled_plan_is_pinned(self, monkeypatch):
        seen = set()
        kernel = dsl.eta_quotient
        monkeypatch.setattr(
            dsl, "eta_quotient", lambda base, etas: seen.add(tuple(sorted(etas.items()))) or kernel(base, etas))
        dsl._eta_expansion.cache_clear()
        for rec in bundled_manifest():
            for text in (rec.lhs, rec.rhs):
                evaluate(parse(text), 300)
        dsl._eta_expansion.cache_clear()
        assert seen == set(BUNDLED_PLANS)
        names = {row[0]: name for row, name in zip(ROWS, ROW_NAMES)}
        names[None] = None
        for vector, passes in BUNDLED_PLANS.items():
            planned = tuple((names[builder], b, a) for builder, b, a in series._plan(vector))
            assert planned == passes, vector

    @pytest.mark.parametrize("etas, products", [
        ({1: 10**6}, 0),
        ({1: 10**6, 2: -10**6}, 1),
        ({1: 1, 2: 10**6}, 0),  # planned as a row pass, psi(q), and a Miller pass
    ])
    def test_miller_passes_come_first(self, monkeypatch, etas, products):
        # on a base of 1 the first Miller pass is the result, so it takes
        # no dense product; a row pass before it would force one
        seen = []
        product = series._product
        monkeypatch.setattr(series, "_product", lambda *args: seen.append(args) or product(*args))
        series.eta_quotient(constant(1, 200), etas)
        assert len(seen) == products

    def test_each_chain_is_planned_on_its_own(self):
        # 300 keys in 150 chains: planned chain by chain they took 22-24 ms,
        # and one greedy over the whole vector 0.93-1.09 s (2-core host),
        # a cost that grows with the square of the key count
        vector = tuple((b, 2 if b % 3 else -2) for b in range(1, 301))
        series._plan.cache_clear()
        series._alone.cache_clear()
        started = time.perf_counter()
        plan = series._plan(vector)
        assert time.perf_counter() - started < 0.1
        assert plan_vector(plan) == dict(vector)
