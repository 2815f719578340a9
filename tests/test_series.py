import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podium import series
from podium.dsl import expand, named_theta
from podium.series import (
    MAX_POWER_WORK,
    NEWTON_BASE,
    Mismatch,
    Series,
    constant,
    equal_upto,
    pochhammer,
    q_power,
)

from conftest import (
    random_series,
    reference_inverse,
    reference_pochhammer,
    reference_product,
    run_algebra_trials,
    unit_series,
)


def brute_partition_count(n, max_part=None):
    # independent oracle: plain recursive count of partitions of n
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    return sum(
        brute_partition_count(n - k, k) for k in range(min(n, max_part), 0, -1)
    )


class TestConstruction:
    def test_constant_one(self):
        assert list(constant(1, 4)) == [1, 0, 0, 0, 0]

    def test_constant_zero(self):
        assert list(constant(0, 2)) == [0, 0, 0]

    def test_constant_order_zero(self):
        assert list(constant(-3, 0)) == [-3]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Series([])

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Series([1, 0.5])

    def test_immutable(self):
        s = constant(1, 3)
        with pytest.raises(AttributeError):
            s.coeffs = (2,)


class TestCoeff:
    def test_partition_anchor(self):
        # p(4) = 5
        assert pochhammer(1, 1, 1, 10).inverse()[4] == 5

    def test_zero_beyond_support(self):
        assert constant(1, 4)[3] == 0

    def test_out_of_range(self):
        s = constant(1, 4)
        with pytest.raises(IndexError):
            s.coeff(5)
        with pytest.raises(IndexError):
            s.coeff(-1)


class TestAddSub:
    def test_add(self):
        assert list(Series([1, 1]) + Series([1, -1])) == [2, 0]

    def test_add_negate_is_zero(self):
        a = Series([3, -2, 7])
        assert a + (-a) == constant(0, 2)

    def test_truncates_to_smaller_order(self):
        a = constant(1, 5)
        b = constant(1, 3)
        assert (a + b).order == 3
        assert (a - b).order == 3


class TestMul:
    def test_difference_of_squares(self):
        one_plus = Series([1, 1])
        one_minus = Series([1, -1])
        assert list(one_plus * one_minus) == [1, 0]
        longer = Series([1, 1, 0]) * Series([1, -1, 0])
        assert list(longer) == [1, 0, -1]

    def test_product_of_pochhammers(self):
        # (q;q) * (-q;q) = (q^2;q^2), both sides independent factor sets
        n = 30
        lhs = pochhammer(1, 1, 1, n) * pochhammer(-1, 1, 1, n)
        assert lhs == pochhammer(1, 2, 2, n)

    def test_inverse_contract(self):
        n = 40
        a = pochhammer(1, 1, 1, n)
        assert a * a.inverse() == constant(1, n)


class TestInverse:
    def test_geometric(self):
        assert list(Series([1, 1, 0, 0]).inverse()) == [1, -1, 1, -1]

    def test_partition_numbers(self):
        got = list(pochhammer(1, 1, 1, 8).inverse())
        assert got == [brute_partition_count(n) for n in range(9)]
        assert got == [1, 1, 2, 3, 5, 7, 11, 15, 22]

    def test_negative_unit(self):
        a = Series([-1, 2, 5])
        assert a * a.inverse() == constant(1, 2)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            Series([2, 1]).inverse()
        with pytest.raises(ValueError):
            Series([0, 1]).inverse()


class TestPower:
    def test_zeroth(self):
        assert Series([7, 3, 1]).power(0) == constant(1, 2)

    def test_jacobi_cube_shape(self):
        # (q;q)^3 has (-1)^n (2n+1) at the triangular numbers
        cube = pochhammer(1, 1, 1, 10).power(3)
        expected = [0] * 11
        for n in range(5):
            t = n * (n + 1) // 2
            if t <= 10:
                expected[t] = (2 * n + 1) * (-1) ** n
        assert list(cube) == expected

    def test_negative_matches_inverse(self):
        a = Series([1, 1, 0, 0])
        assert a.power(-1) == a.inverse()
        assert a.power(-2) == a.inverse() * a.inverse()

    def test_matches_repeated_multiplication(self):
        rng = random.Random(11)
        for k in range(21):
            a = random_series(rng, rng.randint(0, 12))
            expected = constant(1, a.order)
            for _ in range(k):
                expected = expected * a
            assert a.power(k) == expected

    def test_negative_power_of_non_unit(self):
        with pytest.raises(ValueError):
            Series([3, 1]).power(-1)

    def test_zero_constant_term_shifts_by_the_valuation(self):
        a = Series([0, 0, 3, -1, 0, 2, 0, 0, 0, 0, 0, 0, 0])
        expected = constant(1, a.order)
        for k in range(8):
            assert a.power(k) == expected
            expected = expected * a
        assert Series([0, 0, 1, 1]).power(2) == Series([0, 0, 0, 0])
        assert q_power(1, 0).power(10**60) == Series([0])

    def test_huge_exponent_of_a_unit_or_at_a_low_order(self):
        assert Series([-1, 0, 0]).power(10**60 + 1) == Series([-1, 0, 0])
        k = 10**60
        assert Series([1, -1, 0]).power(k) == Series([1, -k, k * (k - 1) // 2])

    def test_past_the_ceiling_raises_before_any_product(self, monkeypatch):
        calls = []
        product = series._product
        monkeypatch.setattr(series, "_product", lambda *args: calls.append(1) or product(*args))
        dense = Series([1, -1] + [0] * 199)
        with pytest.raises(ValueError, match="power too large"):
            dense.power(10**60 - 1)
        assert calls == []

    def test_just_under_the_ceiling_equals_repeated_multiplication(self):
        # (1 + q)^k at order 1000: B is k, below the second bound's
        # 1000 log2(k), so the ceiling falls at bits(k) * 1001 * k
        a = Series([1, 1] + [0] * 999)
        k = MAX_POWER_WORK // (10 * 1001)
        assert k.bit_length() == 10
        expected = [1] + [0] * 1000
        for _ in range(k):  # times 1 + q, by Pascal's rule
            expected = [x + y for x, y in zip(expected, [0] + expected)]
        assert a.power(k).coeffs == tuple(expected)
        with pytest.raises(ValueError, match="power too large"):
            a.power(k + 1)
        # g = q^1000 reaches order 1000 once, so (1 + q^1000)^1000 is
        # charged one factor of g, not 1000, and is not refused
        sparse = Series([1] + [0] * 999 + [1])
        assert sparse.power(1000).coeffs == (1,) + (0,) * 999 + (1000,)


class TestSubstitute:
    def test_double_with_sign(self):
        s = Series([1, 1, 1, 0, 0]).substitute(2, -1)
        assert list(s) == [1, 0, -1, 0, 1]

    def test_identity_substitution(self):
        a = Series([4, -1, 3])
        assert a.substitute(1, 1) == a

    def test_alternating_product_identity(self):
        # (q;q) at q -> -q equals (-q;q^2)(q^2;q^2)
        n = 30
        lhs = pochhammer(1, 1, 1, n).substitute(1, -1)
        rhs = pochhammer(-1, 1, 2, n) * pochhammer(1, 2, 2, n)
        assert lhs == rhs

    def test_matches_definition(self):
        # coefficient i moves to k*i with weight sign^i, past the order it drops
        rng = random.Random(7)
        for order in range(12):
            a = random_series(rng, order)
            for k in range(1, order + 3):
                for sign in (1, -1):
                    expected = [0] * (order + 1)
                    for i in range(order // k + 1):
                        expected[k * i] = sign**i * a[i]
                    assert list(a.substitute(k, sign)) == expected, (order, k, sign)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="stride must be >= 1, got 0"):
            Series([1]).substitute(0)
        with pytest.raises(ValueError, match="sign must be \\+1 or -1, got 3"):
            Series([1]).substitute(2, 3)


class TestPochhammer:
    def test_pentagonal_signs(self):
        got = list(pochhammer(1, 1, 1, 12))
        expected = [0] * 13
        for idx, val in [(0, 1), (1, -1), (2, -1), (5, 1), (7, 1), (12, -1)]:
            expected[idx] = val
        assert got == expected

    def test_distinct_odd_counts(self):
        assert list(pochhammer(-1, 1, 2, 8)) == [1, 1, 0, 1, 1, 1, 1, 1, 2]

    def test_empty_product(self):
        assert pochhammer(1, 9, 1, 8) == constant(1, 8)

    def test_truncation_stability(self):
        long = pochhammer(1, 1, 1, 80)
        short = pochhammer(1, 1, 1, 33)
        assert long.truncate(33) == short

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            pochhammer(2, 1, 1, 5)
        with pytest.raises(ValueError):
            pochhammer(1, 0, 1, 5)


class TestEqualUpto:
    def test_pass(self):
        a = Series([1, 2, 3])
        assert equal_upto(a, a, 2) is None

    def test_first_mismatch(self):
        got = equal_upto(Series([1, 1]), Series([1, 2]), 1)
        assert got == Mismatch(1, 1, 2)

    def test_first_of_several_mismatches_below_the_order(self):
        a = Series([1, 2, 3, 4, 5, 6])
        b = Series([1, 2, 0, 4, 0, 9, 9])
        assert equal_upto(a, b, 5) == Mismatch(2, 3, 0)
        assert equal_upto(a, b, 1) is None

    def test_order_beyond_operands(self):
        with pytest.raises(IndexError):
            equal_upto(Series([1, 1]), Series([1]), 1)

    def test_pod_product_forms_to_200(self):
        n = 200
        form_a = pochhammer(-1, 1, 2, n) * pochhammer(1, 2, 2, n).inverse()
        form_b = pochhammer(1, 2, 4, n) * pochhammer(1, 1, 1, n).inverse()
        form_c = pochhammer(1, 2, 2, n) * (
            pochhammer(1, 1, 1, n) * pochhammer(1, 4, 4, n)
        ).inverse()
        assert equal_upto(form_a, form_b, n) is None
        assert equal_upto(form_a, form_c, n) is None


class TestReduceMod:
    def test_least_nonnegative(self):
        assert list(Series([3, -1, 4]).reduce_mod(2)) == [1, 1, 0]

    def test_idempotent(self):
        a = Series([17, -5, 9, -13])
        assert a.reduce_mod(3) == a.reduce_mod(3).reduce_mod(3)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            Series([1]).reduce_mod(1)


class TestQPower:
    def test_monomial(self):
        assert list(q_power(2, 4)) == [0, 0, 1, 0, 0]

    def test_beyond_order_is_zero(self):
        assert q_power(9, 4) == constant(0, 4)


def test_equality_is_exact():
    assert Series([1, 2, 3]) != Series([1, 2])
    assert Series([1, 2, 3]) != Series([1, 3])
    assert equal_upto(Series([1, 2, 3]), Series([1, 2]), 1) is None
    # pod(4) = 3 and Q(4) = 2: agreeing to the lower order is no equality
    assert expand("gf(pod)", 3) != expand("gf(qdist)", 1000)
    assert Series([1]) != named_theta("phi", 1000)


_COEFFS = st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(_COEFFS, _COEFFS)
def test_equality_is_equal_coefficients_and_equal_upto_is_a_common_prefix(x, y):
    a, b = Series(x), Series(y)
    assert (a == b) == (x == y) and (a != b) == (x != y)
    if a == b:
        assert hash(a) == hash(b)
    for n in range(min(len(x), len(y))):
        assert (equal_upto(a, b, n) is None) == (x[: n + 1] == y[: n + 1])


def test_repr_and_a_non_series_operand():
    assert repr(Series([1, 2])) == "Series([1, 2], order=1)"
    assert repr(Series(range(10))) == "Series([0, 1, 2, 3, 4, 5, 6, 7, ...], order=9)"
    assert Series([1]).__eq__(1) is NotImplemented
    assert Series([1]) != 1


def test_an_int_past_the_digit_limit_prints_by_its_size():
    big = expand("2^20000", 0)
    assert repr(big) == "Series([<20001-bit integer>], order=0)"
    mismatch = equal_upto(big, big + Series([1]), 0)
    assert str(mismatch) == "coefficient 0: <20001-bit integer> != <20001-bit integer>"
    assert repr(mismatch) == "Mismatch(index=0, left=<20001-bit integer>, right=<20001-bit integer>)"


@pytest.mark.parametrize("call, error, message", [
    (lambda: Series([1, 2]).truncate(2), IndexError, r"truncation order 2 outside 0\.\.1"),
    (lambda: Series([1, 2]).truncate(-1), IndexError, r"truncation order -1 outside 0\.\.1"),
    (lambda: Series([1]) + 1, TypeError, r"for \+: 'Series' and 'int'"),
    (lambda: Series([1]) - 1, TypeError, r"for -: 'Series' and 'int'"),
    (lambda: Series([1]) * 1, TypeError, r"for \*: 'Series' and 'int'"),
    (lambda: constant(1, -1), ValueError, r"order must be >= 0, got -1"),
    (lambda: q_power(1, -1), ValueError, r"order must be >= 0, got -1"),
    (lambda: q_power(-1, 3), ValueError, r"exponent must be >= 0, got -1"),
    (lambda: pochhammer(1, 1, 1, -1), ValueError, r"order must be >= 0, got -1"),
    (lambda: equal_upto(Series([1]), Series([1]), -1), ValueError, r"order must be >= 0, got -1"),
], ids=["truncate-above", "truncate-below", "add", "sub", "mul", "constant-order",
        "q_power-order", "q_power-exponent", "pochhammer-order", "equal_upto-order"])
def test_argument_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_algebra_properties_quick():
    # a smaller-seeded sibling of the acceptance run
    assert run_algebra_trials(seed=7, rounds=40) == 200


# Orders on both sides of the recurrence/Newton switch in Series.inverse,
# and on both sides of each Newton doubling above it.
EDGE_ORDERS = sorted(
    {0, 1, 2, NEWTON_BASE - 2, NEWTON_BASE - 1, NEWTON_BASE, NEWTON_BASE + 1,
     2 * NEWTON_BASE - 1, 2 * NEWTON_BASE, 2 * NEWTON_BASE + 1, 4 * NEWTON_BASE + 3}
)
HUGE = 2**15000  # over 4300 decimal digits: any trip through decimal text raises


class TestKernelsMatchReferences:
    """The Kronecker product, the Newton inverse and the Euler-sum Pochhammer
    builder equal the quadratic reference kernels bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_product_edge_orders(self, seed):
        rng = random.Random(seed)
        for n in EDGE_ORDERS:
            a = random_series(rng, n)
            b = random_series(rng, rng.choice((n, n + rng.randint(1, 9))))
            assert list(a * b) == list(reference_product(a, b))
            assert list(b * a) == list(reference_product(a, b))

    def test_product_zero_operands(self):
        rng = random.Random(11)
        for n in EDGE_ORDERS:
            zero = constant(0, n)
            a = random_series(rng, n)
            assert list(zero * a) == [0] * (n + 1)
            assert list(a * zero) == [0] * (n + 1)
            assert list(zero * zero) == [0] * (n + 1)

    @pytest.mark.parametrize("c", [0, 1, -1, 7, -7])
    def test_product_by_a_constant(self, c):
        # a constant on either side, both sides constant, and an operand
        # shorter than the size, as in Newton's step; the result is always
        # `size` coefficients
        rng = random.Random(c)
        for n in EDGE_ORDERS:
            size = n + 1
            a = random_series(rng, n).coeffs
            short = random_series(rng, rng.randint(0, n)).coeffs
            k = (c,) + (0,) * n
            for x, y in ((k, a), (a, k), (k, (-7,) + (0,) * n), (k, k),
                         (k, short), (short, k), ((c,), a), (a, (c,))):
                padded = [Series(cs + (0,) * (size - len(cs))) for cs in (x, y)]
                assert series._product(x, y, size) == list(reference_product(*padded))

    def test_product_signs_and_sizes(self):
        # extremes of one sign, mixed signs, and lone large slots
        rng = random.Random(12)
        for n in EDGE_ORDERS:
            for fill in (-1, 1, -(2**64), 2**64 - 1):
                a = Series([fill] * (n + 1))
                b = random_series(rng, n)
                assert list(a * b) == list(reference_product(a, b))
                assert list(a * a) == list(reference_product(a, a))

    @pytest.mark.parametrize("seed", range(3))
    def test_product_huge_coefficients(self, seed):
        rng = random.Random(seed)
        for n in (0, 1, 7, 40):
            coeffs = [rng.choice((-1, 1)) * rng.randint(HUGE, 2 * HUGE) for _ in range(n + 1)]
            a = Series(coeffs)
            b = random_series(rng, n)
            assert list(a * b) == list(reference_product(a, b))
            assert list(a * a) == list(reference_product(a, a))

    @pytest.mark.parametrize("seed", range(6))
    def test_inverse_edge_orders(self, seed):
        rng = random.Random(100 + seed)
        for n in EDGE_ORDERS:
            u = unit_series(rng, n)
            assert list(u.inverse()) == list(reference_inverse(u))

    def test_inverse_constant_minus_one(self):
        for n in EDGE_ORDERS:
            u = -pochhammer(1, 1, 1, n)
            assert u.coeffs[0] == -1
            assert list(u.inverse()) == list(reference_inverse(u))

    def test_inverse_huge_coefficients(self):
        rng = random.Random(7)
        n = NEWTON_BASE + 1
        coeffs = [-1] + [0] * n
        for i in rng.sample(range(1, n + 1), 3):
            coeffs[i] = rng.choice((-1, 1)) * rng.randint(HUGE, 2 * HUGE)
        u = Series(coeffs)
        assert list(u.inverse()) == list(reference_inverse(u))

    def test_pochhammer(self):
        for order in EDGE_ORDERS + [300]:
            for sign in (1, -1):
                for a, b in ((1, 1), (1, 2), (2, 2), (3, 5), (4, 4), (order + 1, 1)):
                    expected = list(reference_pochhammer(sign, a, b, order))
                    assert list(pochhammer(sign, a, b, order)) == expected

    @pytest.mark.parametrize("sign", [1, -1])
    def test_pochhammer_every_small_shape(self, sign):
        # Euler's term n starts at q^(a n + b n(n-1)/2): at that order it is
        # the last term kept, and one order lower it is dropped
        for a in range(1, 8):
            for b in range(1, 8):
                tops = [a * n + b * n * (n - 1) // 2 for n in range(1, 7)]
                for order in sorted({0, 1, 2, 5, 37, 200, *tops, *[t - 1 for t in tops]}):
                    expected = list(reference_pochhammer(sign, a, b, order))
                    assert list(pochhammer(sign, a, b, order)) == expected, (a, b, order)
        # the two factors of hexagonal-triple-product: each factor alone has no eta form
        for a in (1, 3):
            assert list(pochhammer(sign, a, 4, 1000)) == list(reference_pochhammer(sign, a, 4, 1000))
