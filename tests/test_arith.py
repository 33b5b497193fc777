import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflab.arith import (factorize, h_factor, kronecker,
                         local_density_good, square_split, valuation)


def legendre_oracle(a: int, p: int) -> int:
    """Euler criterion; p an odd prime."""
    a %= p
    if a == 0:
        return 0
    v = pow(a, (p - 1) // 2, p)
    return 1 if v == 1 else -1


def kronecker_oracle(a: int, n: int) -> int:
    """Definitional product over the factorization of n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    for p, e in factorize(n) if n > 1 else []:
        if p == 2:
            if a % 2 == 0:
                return 0
            part = 1 if a % 8 in (1, 7) else -1
        else:
            part = legendre_oracle(a, p)
        if part == 0:
            return 0
        result *= part ** (e % 2)
    return result


class TestKronecker:
    def test_examples(self):
        assert kronecker(4, 7) == 1
        assert kronecker(-4, 7) == -1
        assert kronecker(12, 5) == -1

    def test_minus_four_character(self):
        # (-4|n) is +1 exactly for n = 1 mod 4
        for n in range(1, 60, 2):
            assert kronecker(-4, n) == (1 if n % 4 == 1 else -1)

    def test_edge_bottoms(self):
        assert kronecker(1, 0) == 1
        assert kronecker(-1, 0) == 1
        assert kronecker(5, 0) == 0
        assert kronecker(5, 1) == 1
        assert kronecker(-7, -1) == -1
        assert kronecker(7, -1) == 1
        assert kronecker(6, 2) == 0
        assert kronecker(7, 2) == 1
        assert kronecker(3, 2) == -1

    def test_against_oracle_window(self):
        for a in range(-120, 121):
            for n in range(-120, 121):
                assert kronecker(a, n) == kronecker_oracle(a, n), (a, n)

    @given(st.integers(-2000, 2000), st.integers(-2000, 2000))
    @settings(max_examples=300)
    def test_against_oracle_sampled(self, a, n):
        assert kronecker(a, n) == kronecker_oracle(a, n)

    @given(st.integers(-300, 300), st.integers(-300, 300),
           st.integers(-100, 100))
    @settings(max_examples=200)
    def test_multiplicative_in_top(self, a, b, n):
        if n == -1 and a * b == 0 and min(a, b) < 0:
            # the one exception: (0|-1) = 1, but (0|-1)(b|-1) = -1 for
            # b < 0
            assert kronecker(a * b, n) == 1
        else:
            assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)

    @given(st.integers(-300, 300), st.integers(-100, 100),
           st.integers(-100, 100))
    @settings(max_examples=200)
    def test_multiplicative_in_bottom(self, a, m, n):
        if a == -1 and m * n == 0:
            # the one exception: (-1|0) = 1, but (-1|0)(-1|n) = (-1|n),
            # which is -1 for n = -1 and for n = 3
            assert kronecker(a, m * n) == 1
        else:
            assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


class TestFactorize:
    def test_examples(self):
        assert factorize(960) == ((2, 6), (3, 1), (5, 1))
        assert factorize(1) == ()
        assert factorize(77) == ((7, 1), (11, 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(1, 10**6))
    @settings(max_examples=200)
    def test_reconstructs(self, n):
        prod = 1
        last = 0
        for p, e in factorize(n):
            assert p > last and e >= 1
            last = p
            prod *= p**e
        assert prod == n

    def test_valuation(self):
        assert valuation(960, 2) == 6
        assert valuation(7, 2) == 0
        with pytest.raises(ValueError):
            valuation(0, 3)
        for p in (1, 0, -2):  # p = 1 divides every n: the loop never ends
            with pytest.raises(ValueError):
                valuation(12, p)


class TestSplitByModulus:
    def test_examples(self):
        assert square_split(12, 1920) == (12, ())
        assert square_split(77, 1920) == (1, ((7, 1), (11, 1)))
        assert square_split(45, 1920) == (45, ())

    @given(st.integers(1, 5000), st.integers(2, 5000))
    @settings(max_examples=200)
    def test_partition(self, n, modulus):
        n1, mu = square_split(n, modulus)
        for p, _ in factorize(n1):
            assert modulus % p == 0
        n2 = 1
        for p, e in mu:
            n2 *= p**e
        assert n1 * n2 == n
        assert gcd(n2, modulus) == 1

    @given(st.integers(1, 10**4), st.integers(1, 10**7))
    @settings(max_examples=200)
    def test_matches_factorize_definition(self, n, modulus):
        bad = {p for p, _ in factorize(modulus)}
        n1 = 1
        for p, e in factorize(n):
            if p in bad:
                n1 *= p**e
        mu = tuple((p, e) for p, e in factorize(n) if p not in bad)
        # the second call is served from the memoised prime divisors
        for _ in range(2):
            assert square_split(n, modulus) == (n1, mu)


class TestHFactor:
    def test_nonresidue_at_11(self):
        # kron(7, 11) = -1; the value 121 - 11 + 1
        assert kronecker(7, 11) == -1
        assert h_factor(7, 11, 1, 4) == 111

    def test_mu_zero(self):
        assert h_factor(5, 3, 0, 4) == 1
        assert h_factor(960, 7, 0, 4) == 1

    def test_rank3_example(self):
        assert kronecker(-21, 5) == 1
        assert h_factor(21, 5, 1, 3) == 5

    def test_rejects_bad_prime(self):
        with pytest.raises(ValueError):
            h_factor(960, 3, 1, 4)
        with pytest.raises(ValueError):
            h_factor(5, 2, 1, 4)
        with pytest.raises(ValueError):
            h_factor(5, 3, 1, 5)

    @given(st.integers(1, 10**6), st.sampled_from([3, 5, 7, 11, 13, 101]),
           st.integers(0, 6))
    @settings(max_examples=300)
    def test_even_rank_term_sum(self, d_f, p, mu):
        if (2 * d_f) % p == 0:
            return
        chi = kronecker(d_f, p)
        expected = sum(chi**t * p**t for t in range(2 * mu + 1))
        assert h_factor(d_f, p, mu, 4) == expected

    @given(st.integers(1, 10**6), st.sampled_from([3, 5, 7, 11, 13]),
           st.integers(0, 6))
    @settings(max_examples=300)
    def test_odd_rank_sum_identity(self, d_f, p, mu):
        if (2 * d_f) % p == 0:
            return
        chi = kronecker(-d_f, p)
        # rearrangement: p^mu + (1 - chi) * sum_{t<mu} p^t
        expected = p**mu + (1 - chi) * sum(p**t for t in range(mu))
        assert h_factor(d_f, p, mu, 3) == expected

    @given(st.integers(1, 10**6), st.sampled_from([3, 5, 7, 11, 13]),
           st.integers(0, 6))
    @settings(max_examples=300)
    def test_matches_square_argument_ratio(self, d_f, p, mu):
        if (2 * d_f) % p == 0:
            return
        chi = kronecker(d_f, p)
        both = sum(chi ** (2 * mu - t) * p**t for t in range(2 * mu + 1))
        assert h_factor(d_f, p, mu, 4) == both


def density_ratio(d_f: int, p: int, mu: int) -> Fraction:
    """p^(2 mu) alpha_p(p^(2 mu)) / alpha_p(1) from the local densities:
    the good-prime factor of r(n^2), computed without h_factor."""
    return (p ** (2 * mu) * local_density_good(d_f, p, 2 * mu)
            / local_density_good(d_f, p, 0))


class TestGoodPrimeRatio:
    """local_density_good as an independent cross-check of h_factor at
    rank 4."""

    def test_examples(self):
        assert kronecker(1, 3) == 1
        assert density_ratio(1, 3, 1) == h_factor(1, 3, 1, 4) == 1 + 3 + 9
        assert kronecker(3, 7) == -1
        assert density_ratio(3, 7, 1) == h_factor(3, 7, 1, 4) == 1 - 7 + 49
        assert density_ratio(17, 5, 0) == h_factor(17, 5, 0, 4) == 1

    def test_rejects_negative_mu(self):
        # Fraction raised a TypeError here before
        with pytest.raises(ValueError, match="mu must be nonnegative"):
            local_density_good(5, 3, -1)

    @pytest.mark.parametrize("p", [9, 15, 1, 0, -3])
    def test_rejects_non_prime(self, p):
        # 9 gave 800/729 before
        with pytest.raises(ValueError, match="not a prime"):
            local_density_good(5, p, 1)

    def test_rejects_dividing_prime(self):
        with pytest.raises(ValueError, match="divides"):
            local_density_good(5, 5, 1)

    def test_alpha_ratio_cross_check(self):
        rng = random.Random(7)
        for _ in range(200):
            d_f = rng.randrange(1, 10**5)
            p = rng.choice([3, 5, 7, 11, 13])
            if (2 * d_f) % p == 0:
                continue
            mu = rng.randrange(0, 5)
            assert density_ratio(d_f, p, mu) == h_factor(d_f, p, mu, 4)
