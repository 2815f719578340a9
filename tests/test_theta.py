import itertools

import pytest

from podium.dsl import named_theta
from podium.series import constant, pochhammer
from podium.theta import DivergenceError, Domain, QuadExp, theta_series


def one(n):
    return 1


def alt(n):
    return -1 if n % 2 else 1


def ceil_half(n):
    return -((-n) // 2)


def triangular(k):
    return k * (k + 1) // 2


def alt_ceil_half(n):
    return -1 if ceil_half(n) % 2 else 1


class TestQuadExp:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            QuadExp(1, 0, 1, 2)  # (n^2 + 1)/2 is not always integral

    def test_divisibility_verdicts_match_a_brute_force_check(self):
        # checked at n = 0, 1 and 2 only, which decides it for every n
        for a, b, c, d in itertools.product(range(4), range(-3, 4), range(-3, 4), range(1, 7)):
            divisible = all((a * n * n + b * n + c) % d == 0 for n in range(-300, 301))
            try:
                QuadExp(a, b, c, d)
            except ValueError:
                assert not divisible, (a, b, c, d)
            else:
                assert divisible, (a, b, c, d)

    def test_negative_quadratic_rejected(self):
        with pytest.raises(ValueError):
            QuadExp(-1, 0)

    def test_evaluation(self):
        tri = QuadExp(1, 1, 0, 2)
        assert [tri(n) for n in range(5)] == [0, 1, 3, 6, 10]
        assert tri(-3) == 3


class TestThetaSeries:
    def test_phi_coefficients(self):
        assert list(named_theta("phi", 9)) == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2]

    def test_psi_support(self):
        s = named_theta("psi", 25)
        ts = {triangular(k) for k in range(10) if triangular(k) <= 25}
        assert all(s[n] == (1 if n in ts else 0) for n in range(26))

    def test_hexagonal_sum_matches_triple_product(self):
        n = 100
        s = theta_series(Domain.ALL_INTEGERS, alt, QuadExp(2, 1), n)
        prod = (
            pochhammer(1, 4, 4, n)
            * pochhammer(1, 3, 4, n)
            * pochhammer(1, 1, 4, n)
        )
        assert s == prod

    def test_callable_weight_and_exponent(self):
        s = theta_series(
            Domain.NON_NEGATIVE, lambda n: n + 1, lambda n: 2 * n, 6
        )
        assert list(s) == [1, 0, 2, 0, 3, 0, 4]

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError):
            theta_series(Domain.NON_NEGATIVE, one, lambda n: 0, 4)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            theta_series(Domain.NON_NEGATIVE, one, lambda n: n - 2, 4)

    def test_each_parity_class_is_scanned_on_its_own(self):
        # one scan over all n would stop at e(2) = 2002, after e(1) = 1
        s = theta_series(
            Domain.NON_NEGATIVE, one, lambda n: 1000 * (-1) ** n + 1000 + n, 12
        )
        assert list(s) == [0, 1] * 6 + [0]

    @pytest.mark.parametrize("domain", list(Domain))
    def test_flat_exponent_is_refused_after_a_million_and_one_steps(self, domain):
        calls = [0]

        def flat(n):
            calls[0] += 1
            return 3

        with pytest.raises(DivergenceError):
            theta_series(domain, one, flat, 5)
        assert calls[0] == 10**6 + 1

    @pytest.mark.parametrize("domain, order, error, message", [
        ("Z", 10, TypeError, "domain must be a Domain, got str"),
        (None, 10, TypeError, "domain must be a Domain, got NoneType"),
        (Domain.ALL_INTEGERS, -1, ValueError, "order must be >= 0, got -1"),
    ], ids=["text-domain", "no-domain", "negative-order"])
    def test_argument_checks(self, domain, order, error, message):
        # a domain such as the text "Z" must not be read as N
        with pytest.raises(error, match=message):
            theta_series(domain, one, QuadExp(1, 0), order)

    def test_dipping_window_not_cut_short(self):
        # exponent dips before growing; every point must still be collected
        s = theta_series(
            Domain.NON_NEGATIVE, one, lambda n: (n - 3) ** 2, 4
        )
        # n=1..5 give 4,1,0,1,4; n=0,6 give 9,9 (beyond order)
        assert list(s) == [1, 2, 0, 0, 2]


class TestProductForms:
    def test_phi_two_products(self):
        n = 150
        lhs = named_theta("phi", n)
        a = pochhammer(-1, 1, 2, n).power(2) * pochhammer(1, 2, 2, n)
        b = pochhammer(1, 2, 2, n).power(5) * (
            pochhammer(1, 1, 1, n).power(2) * pochhammer(1, 4, 4, n).power(2)
        ).inverse()
        assert lhs == a
        assert lhs == b

    def test_psi_product(self):
        n = 150
        assert named_theta("psi", n) == pochhammer(1, 2, 2, n).power(2) * pochhammer(1, 1, 1, n).inverse()

    def test_phi_neg_is_substitution(self):
        n = 120
        assert named_theta("phi_neg", n) == named_theta("phi", n).substitute(1, -1)
        prod = pochhammer(1, 1, 1, n).power(2) * pochhammer(1, 2, 2, n).inverse()
        assert named_theta("phi_neg", n) == prod

    def test_psi_neg_product(self):
        n = 120
        prod = pochhammer(1, 2, 2, n) * pochhammer(-1, 1, 2, n).inverse()
        assert named_theta("psi_neg", n) == prod

    def test_euler_pentagonal_equals_pochhammer(self):
        assert named_theta("euler_pentagonal", 12) == pochhammer(1, 1, 1, 12)

    def test_jacobi_cube_equals_power(self):
        assert named_theta("jacobi_cube", 10) == pochhammer(1, 1, 1, 10).power(3)

    def test_reindexing_identity(self):
        n = 100
        two_sided = theta_series(Domain.ALL_INTEGERS, alt, QuadExp(2, 1), n)
        one_sided = theta_series(
            Domain.NON_NEGATIVE, alt_ceil_half, QuadExp(1, 1, 0, 2), n
        )
        assert two_sided == one_sided


class TestNamed:
    def test_all_names_build(self):
        names = [
            "phi", "psi", "phi_neg", "psi_neg", "euler_pentagonal",
            "jacobi_cube", "ram_6n1", "ram_3n1", "baruah_pent", "e1_series",
        ]
        n = 200
        bound = 6 * 15 + 1  # 6 * ceil(sqrt(200)) + 1
        for name in names:
            s = named_theta(name, n)
            assert s.order == n
            assert all(abs(c) <= bound for c in s)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_theta("nope", 10)

    def test_baruah_product(self):
        n = 100
        prod = (
            pochhammer(-1, 1, 1, n)
            * pochhammer(1, 3, 3, n)
            * pochhammer(-1, 3, 3, n).inverse()
        )
        assert named_theta("baruah_pent", n) == prod

    def test_ramanujan_weighted_sums(self):
        n = 100
        lhs6 = pochhammer(1, 1, 1, n).power(5) * pochhammer(1, 2, 2, n).power(2).inverse()
        assert named_theta("ram_6n1", n) == lhs6
        lhs3 = (
            pochhammer(1, 1, 1, n).power(2)
            * pochhammer(1, 4, 4, n).power(2)
            * pochhammer(1, 2, 2, n).inverse()
        )
        assert named_theta("ram_3n1", n) == lhs3

    def test_constant_term(self):
        for name in ("phi", "psi", "euler_pentagonal", "jacobi_cube"):
            assert named_theta(name, 0) == constant(1, 0)
