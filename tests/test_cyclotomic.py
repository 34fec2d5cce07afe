import random

import pytest

from k3degen.cyclotomic import (
    CycloFactorization,
    IntPolynomial,
    NotCyclotomicProduct,
    _divide,
    bounded_orders,
    cyclotomic_poly,
    euler_phi,
    factor_into_cyclotomics,
)

import oracles


class TestIntPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert IntPolynomial([1, 2, 0, 0]).coefficients == (1, 2)
        assert IntPolynomial([0, 0]).coefficients == ()
        assert IntPolynomial([0, 0]).degree() == -1

    def test_immutable(self):
        p = IntPolynomial([1, 2])
        with pytest.raises(AttributeError, match="IntPolynomial is immutable"):
            p.coefficients = (3,)

    def test_equality_and_hash(self):
        assert IntPolynomial([1, 2, 0]) == IntPolynomial([1, 2])
        assert hash(IntPolynomial([1, 2, 0])) == hash(IntPolynomial([1, 2]))
        assert IntPolynomial([1, 2]) != (1, 2)


class TestDivide:
    def test_divide_monic(self):
        assert _divide([-1, 0, 0, 1], [-1, 1]) == ([1, 1, 1], [0])  # x^3 - 1 = (x - 1)(x^2 + x + 1)
        assert _divide([-1, 1], [-1, 0, 1]) == ([], [-1, 1])  # a lower degree is all remainder

    def test_divide_leaves_the_remainder(self):
        assert _divide([1, 1], [0, 1]) == ([1], [1])  # x + 1 = 1 * x + 1

    def test_times_divide_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(100):
            a = oracles.poly_trim([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])
            b = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))] + [1]
            quotient, rem = _divide(oracles.poly_mul(a, b), b)
            assert tuple(quotient) == a and not any(rem)


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(42) == 12
        assert euler_phi(66) == 20

    def test_against_gcd_count(self):
        for m in range(1, 300):
            assert euler_phi(m) == oracles.naive_phi(m)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            euler_phi(0)


class TestCyclotomicPoly:
    def test_small_cases(self):
        assert cyclotomic_poly(1).coefficients == (-1, 1)
        assert cyclotomic_poly(2).coefficients == (1, 1)
        assert cyclotomic_poly(12).coefficients == (1, 0, -1, 0, 1)

    def test_against_moebius_oracle(self):
        for m in list(range(1, 121)) + [105]:
            assert cyclotomic_poly(m).coefficients == oracles.cyclo_oracle(m)

    def test_degree_is_phi(self):
        for m in range(1, 101):
            assert cyclotomic_poly(m).degree() == euler_phi(m)

    def test_product_over_divisors(self):
        for m in range(1, 101):
            product = (1,)
            for d in range(1, m + 1):
                if m % d == 0:
                    product = oracles.poly_mul(product, cyclotomic_poly(d).coefficients)
            assert product == oracles.x_pow_minus_one(m)

    def test_special_values(self):
        # Phi_m(0) = 1 for every m > 1, while Phi_m(1) detects prime powers:
        # it is p when m = p^e and 1 otherwise; the values at 0 and 1 are the
        # constant coefficient and the coefficient sum
        def is_prime(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        for m in range(2, 101):
            coefficients = cyclotomic_poly(m).coefficients
            assert coefficients[0] == 1
            prime_divisors = {p for p in range(2, m + 1) if m % p == 0 and is_prime(p)}
            at_one = sum(coefficients)
            if len(prime_divisors) == 1:
                assert at_one == next(iter(prime_divisors))
            else:
                assert at_one == 1

    def test_large_coefficient_exactness(self):
        # Phi_105 is the first with a coefficient of absolute value 2
        assert min(cyclotomic_poly(105).coefficients) == -2


class TestBoundedOrders:
    def test_examples(self):
        assert bounded_orders(1) == [1, 2]
        assert bounded_orders(2) == [1, 2, 3, 4, 6]
        assert max(bounded_orders(20)) == 66

    def test_membership_brute_force(self):
        for bound in (1, 3, 8, 20):
            got = set(bounded_orders(bound))
            for m in range(1, 2 * bound * bound + 1):
                assert (m in got) == (oracles.naive_phi(m) <= bound)

    def test_monotone(self):
        assert set(bounded_orders(10)) <= set(bounded_orders(20))

    def test_against_totient_filter(self):
        # phi(m) >= sqrt(m / 2), so every m with phi(m) <= b lies below 2 b^2
        phi = oracles.totient_table(2 * 100**2 + 1)
        for bound in range(1, 101):
            assert bounded_orders(bound) == [m for m in range(1, 2 * bound * bound + 1) if phi[m] <= bound]

    def test_count_at_the_cap(self):
        orders = bounded_orders(10**5)
        assert len(orders) == 194429
        assert orders == sorted(set(orders))

    def test_bound_outside_range(self):
        for bound in (0, -1, 10**5 + 1):
            with pytest.raises(ValueError, match=r"1 <= bound <= 100000"):
                bounded_orders(bound)


class TestCycloFactorization:
    def test_expand_and_degree(self):
        f = CycloFactorization({1: 10, 42: 1})
        assert f.total_degree() == 22
        poly = f.expand()
        assert poly.degree() == 22 and poly.is_monic()

    def test_expand_small_products(self):
        assert CycloFactorization({1: 1, 2: 1}).expand().coefficients == (-1, 0, 1)
        assert CycloFactorization({1: 3}).expand().coefficients == (-1, 3, -3, 1)
        assert CycloFactorization({}).expand().coefficients == (1,)

    def test_expand_against_schoolbook_product(self):
        rng = random.Random(7)
        pool = bounded_orders(12)
        for _ in range(300):
            factors = {}
            for _ in range(rng.randint(1, 6)):
                m = rng.choice(pool)
                factors[m] = factors.get(m, 0) + rng.randint(1, 3)
            assert CycloFactorization(factors).expand().coefficients == oracles.poly_product(factors)

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            CycloFactorization({0: 1})
        with pytest.raises(ValueError):
            CycloFactorization({3: 0})

    def test_equality_and_hash(self):
        assert CycloFactorization({2: 1, 3: 2}) == CycloFactorization({3: 2, 2: 1})
        assert hash(CycloFactorization({2: 1})) == hash(CycloFactorization({2: 1}))
        assert CycloFactorization({2: 1}) != {2: 1}
        with pytest.raises(AttributeError, match="CycloFactorization is immutable"):
            CycloFactorization({2: 1}).factors = {}
        with pytest.raises(TypeError):
            CycloFactorization({2: 1}).factors[3] = 1


class TestFactorIntoCyclotomics:
    def test_table_entries(self):
        f = CycloFactorization({1: 10, 42: 1})
        assert factor_into_cyclotomics(f.expand()) == f
        g = CycloFactorization({1: 2, 5: 1, 40: 1})
        assert factor_into_cyclotomics(g.expand()) == g

    def test_single_factor(self):
        assert factor_into_cyclotomics(IntPolynomial([-1, 1])) == CycloFactorization({1: 1})

    def test_constant_one(self):
        assert factor_into_cyclotomics(IntPolynomial([1])) == CycloFactorization({})

    def test_non_cyclotomic_rejected(self):
        with pytest.raises(NotCyclotomicProduct):
            factor_into_cyclotomics(IntPolynomial([-2, 0, 1]))  # x^2 - 2
        # a cyclotomic part times a non-cyclotomic one still fails
        mixed = IntPolynomial(oracles.poly_mul((-2, 0, 1), cyclotomic_poly(6).coefficients))
        with pytest.raises(NotCyclotomicProduct):
            factor_into_cyclotomics(mixed)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            factor_into_cyclotomics(IntPolynomial([]))
        with pytest.raises(ValueError):
            factor_into_cyclotomics(IntPolynomial([2, 2]))

    def test_random_roundtrips(self):
        rng = random.Random(2024)
        pool = bounded_orders(12)
        for _ in range(60):
            factors = {}
            degree = 0
            while degree < 40:
                m = rng.choice(pool)
                if degree + euler_phi(m) > 40:
                    break
                factors[m] = factors.get(m, 0) + 1
                degree += euler_phi(m)
            if not factors:
                continue
            f = CycloFactorization(factors)
            expanded = f.expand()
            assert expanded.degree() == f.total_degree()
            assert factor_into_cyclotomics(expanded) == f
