import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from k3degen.autorders import (
    CharSetting,
    admissible_transcendental_charpolys,
    is_prime,
    nygaard_sigma0,
    order_decomposition,
    wild_prime_powers,
)
from k3degen.cyclotomic import CycloFactorization, euler_phi

import oracles


SIEVE = oracles.prime_sieve(10**5)
SIEVE_PRIMES = [n for n, prime in enumerate(SIEVE) if prime]
PSI_13 = 3317044064679887385961981


class TestIsPrime:
    # psi_1 .. psi_12, the least strong pseudoprimes to the first k prime
    # bases (psi_7 = psi_8, psi_9 = psi_10 = psi_11), with their factors
    STRONG_PSEUDOPRIMES = {
        2047: (23, 89),
        1373653: (829, 1657),
        25326001: (2251, 11251),
        3215031751: (151, 751, 28351),
        2152302898747: (6763, 10627, 29947),
        3474749660383: (1303, 16927, 157543),
        341550071728321: (10670053, 32010157),
        3825123056546413051: (149491, 747451, 34233211),
        318665857834031151167461: (399165290221, 798330580441),
    }

    def test_matches_sieve_below_10_5(self):
        assert [n for n, prime in enumerate(SIEVE) if is_prime(n) != prime] == []
        assert not any(is_prime(n) for n in range(-3, 0))

    def test_strong_pseudoprimes_are_composite(self):
        for n, factors in self.STRONG_PSEUDOPRIMES.items():
            assert math.prod(factors) == n and not is_prime(n), n

    def test_carmichael_numbers_are_composite(self):
        for n in (561, 1105, 1729, 41041, 825265, 321197185):
            assert not is_prime(n), n

    def test_large_primes(self):
        for n in (2**31 - 1, 2**61 - 1, 10**18 + 3):
            assert is_prime(n), n

    def test_certificate_bound(self):
        # psi_13 = 1287836182261 * 2575672364521 passes all 13 bases, so it
        # and everything above it stay undecided
        assert 1287836182261 * 2575672364521 == PSI_13
        for n in (PSI_13, 2**89 - 1):
            with pytest.raises(ValueError, match=str(PSI_13)):
                is_prime(n)
        assert (PSI_13 - 2) % 17 == 0 and not is_prime(PSI_13 - 2)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.sampled_from(SIEVE_PRIMES), st.sampled_from(SIEVE_PRIMES))
    def test_products_of_two_primes_are_composite(self, p, q):
        assert not is_prime(p * q)


class TestCharSetting:
    def test_char0_takes_no_p(self):
        assert CharSetting("char0").p is None
        with pytest.raises(ValueError):
            CharSetting("char0", 5)

    def test_positive_characteristic_needs_prime(self):
        with pytest.raises(ValueError):
            CharSetting("liftable", 6)
        with pytest.raises(ValueError):
            CharSetting("finite-field", 1)

    def test_finite_height_and_field_exclude_two(self):
        with pytest.raises(ValueError):
            CharSetting("finite-height", 2)
        with pytest.raises(ValueError):
            CharSetting("finite-field", 2)
        # liftable automorphisms exist in characteristic 2
        assert CharSetting("liftable", 2).p == 2

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            CharSetting("mystery", 3)


class TestAdmissibleCharpolys:
    def test_char0_power_of_single_factor(self):
        assert admissible_transcendental_charpolys(42, CharSetting("char0"), 12) == [
            CycloFactorization({42: 1})
        ]
        assert admissible_transcendental_charpolys(1, CharSetting("char0"), 1) == [
            CycloFactorization({1: 1})
        ]

    def test_char0_empty_when_phi_does_not_divide(self):
        assert admissible_transcendental_charpolys(42, CharSetting("char0"), 13) == []

    def test_char0_nonempty_iff_phi_divides(self):
        for m in (1, 2, 3, 5, 7, 12, 42):
            for t_rank in range(1, 22):
                result = admissible_transcendental_charpolys(m, CharSetting("char0"), t_rank)
                assert bool(result) == (t_rank % euler_phi(m) == 0)

    def test_char0_is_the_untwisted_liftable_power(self):
        # char 0 is the e = 0 single power: the liftable answer's entries indexed by m alone
        for m, t_rank in itertools.product(range(1, 61), range(1, 22)):
            char0 = admissible_transcendental_charpolys(m, CharSetting("char0"), t_rank)
            for p in (2, 3, 5, 7, 11, 13):
                if m % p:
                    liftable = admissible_transcendental_charpolys(m, CharSetting("liftable", p), t_rank)
                    assert char0 == [f for f in liftable if list(f.factors) == [m]]

    def test_finite_field_includes_twisted_power(self):
        result = admissible_transcendental_charpolys(1, CharSetting("finite-field", 11), 20)
        assert CycloFactorization({11: 2}) in result
        assert CycloFactorization({1: 20}) in result

    def test_liftable_char2_table_row(self):
        result = admissible_transcendental_charpolys(21, CharSetting("liftable", 2), 12)
        assert CycloFactorization({42: 1}) in result
        assert CycloFactorization({21: 1}) in result

    def test_rejects_p_dividing_m(self):
        with pytest.raises(ValueError):
            admissible_transcendental_charpolys(22, CharSetting("liftable", 11), 10)

    def test_t_rank_range(self):
        with pytest.raises(ValueError):
            admissible_transcendental_charpolys(1, CharSetting("char0"), 0)
        with pytest.raises(ValueError):
            admissible_transcendental_charpolys(1, CharSetting("char0"), 22)

    def test_every_emitted_factorization_has_exact_degree(self):
        settings = [
            CharSetting("char0"),
            CharSetting("liftable", 3),
            CharSetting("finite-field", 5),
            CharSetting("finite-height", 3),
        ]
        for setting in settings:
            for m in (1, 2, 4, 7):
                if setting.p is not None and m % setting.p == 0:
                    continue
                for t_rank in (1, 6, 12, 20):
                    for f in admissible_transcendental_charpolys(m, setting, t_rank):
                        poly = f.expand()
                        assert poly.degree() == t_rank
                        assert poly.is_monic()

    def test_finite_height_matches_brute_force(self):
        m, p, t_rank = 1, 3, 8
        got = set(admissible_transcendental_charpolys(m, CharSetting("finite-height", p), t_rank))
        indices = []
        q = m
        while euler_phi(q) <= t_rank:
            indices.append(q)
            q *= p
        expected = set()
        bounds = [t_rank // euler_phi(i) for i in indices]
        for mults in itertools.product(*(range(b + 1) for b in bounds)):
            total = sum(k * euler_phi(i) for k, i in zip(mults, indices))
            if total == t_rank:
                expected.add(
                    CycloFactorization({i: k for i, k in zip(indices, mults) if k})
                )
        assert got == expected

    def test_expansions_against_schoolbook_product(self):
        # the finite-height sweep of the arithmetic_queries workload: m in {1, 2, 4}, p in {3, 5, 7}
        for m, p, t_rank in itertools.product((1, 2, 4), (3, 5, 7), range(1, 22)):
            for f in admissible_transcendental_charpolys(m, CharSetting("finite-height", p), t_rank):
                assert f.expand().coefficients == oracles.poly_product(f.factors)

    def test_finite_height_flags_multi_factor(self):
        result = admissible_transcendental_charpolys(1, CharSetting("finite-height", 3), 6)
        multi = [f for f in result if len(f.factors) != 1]
        assert CycloFactorization({1: 4, 3: 1}) in multi
        assert all(len(f.factors) > 1 for f in multi)


class TestWildPrimePowers:
    def test_bound_21_is_the_published_set(self):
        assert wild_prime_powers(21) == sorted(
            [2, 4, 8, 16, 32, 3, 9, 27, 5, 25, 7, 11, 13, 17, 19]
        )

    def test_bound_1(self):
        assert wild_prime_powers(1) == [2]

    def test_bound_outside_range(self):
        for bound in (0, -3, 10**5 + 1):
            with pytest.raises(ValueError, match=r"1\.\.100000"):
                wild_prime_powers(bound)

    def test_bound_22_adds_23(self):
        assert set(wild_prime_powers(22)) == set(wild_prime_powers(21)) | {23}

    def test_monotone(self):
        previous = set()
        for bound in range(1, 40):
            current = set(wild_prime_powers(bound))
            assert previous <= current
            previous = current

    def test_against_brute_force(self):
        def is_prime_power(q):
            for p in range(2, q + 1):
                if q % p == 0:
                    while q % p == 0:
                        q //= p
                    return q == 1, p
            return False, None

        for bound in (1, 5, 21, 30, 101, 257):
            expected = []
            # a prime power q = p^e has phi(q) = q (1 - 1/p) >= q / 2
            for q in range(2, 2 * bound + 2):
                ok, _ = is_prime_power(q)
                if ok and oracles.naive_phi(q) <= bound:
                    expected.append(q)
            assert wild_prime_powers(bound) == expected


class TestNygaard:
    def test_ruled_out_pairs(self):
        assert nygaard_sigma0(42, 2) == []
        assert nygaard_sigma0(6, 5) == [1, 3, 5, 7, 9]
        assert nygaard_sigma0(1, 3) == list(range(1, 11))

    def test_big_integer_verification(self):
        for m, p in [(6, 5), (1, 7), (14, 13), (10, 3), (33, 2)]:
            got = nygaard_sigma0(m, p)
            for s in range(1, 11):
                assert (s in got) == ((p**s + 1) % m == 0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            nygaard_sigma0(0, 2)
        with pytest.raises(ValueError):
            nygaard_sigma0(5, 4)


class TestHet2AndOrderDecomposition:
    def test_verify_het2(self):
        assert CycloFactorization({1: 10, 42: 1}).total_degree() == 22
        assert CycloFactorization({1: 22}).total_degree() == 22
        assert CycloFactorization({1: 2, 66: 1}).total_degree() == 22
        assert CycloFactorization({1: 21}).total_degree() != 22

    def test_order_decomposition(self):
        assert order_decomposition(28, 2) == (2, 7)
        assert order_decomposition(7, 2) == (0, 7)
        assert order_decomposition(66, 3) == (1, 22)

    def test_order_decomposition_reconstructs(self):
        for n in range(1, 200):
            for p in (2, 3, 5, 7):
                e, rest = order_decomposition(n, p)
                assert p**e * rest == n and rest % p != 0

    def test_order_decomposition_validation(self):
        with pytest.raises(ValueError):
            order_decomposition(0, 2)
        with pytest.raises(ValueError):
            order_decomposition(12, 6)
