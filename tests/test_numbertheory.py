"""Totient, divisor, cyclotomic, and pi_n behavior against brute oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionkit.numbertheory import (
    TotientTable,
    cyclotomic,
    divisors,
    lcm_upto,
    max_torsion_period,
    nu_poly,
    pi_poly_gcd,
    pi_poly_product,
    torsion_bound,
    totient,
    totient_index_map,
    totient_indices,
)
from torsionkit.polynomials import IntPoly

from _oracles import brute_divisors, brute_totient, oracle_max_period


class TestTotient:
    def test_pinned_values(self):
        assert totient(1) == 1
        assert totient(9) == 6
        assert totient(12) == 4

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            totient(0)

    @given(st.integers(min_value=1, max_value=2000))
    def test_matches_brute_count(self, n):
        assert totient(n) == brute_totient(n)

    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=60),
    )
    def test_multiplicative_on_coprime(self, m, n):
        if math.gcd(m, n) == 1:
            assert totient(m * n) == totient(m) * totient(n)

    def test_prime_power_rule(self):
        for p in (2, 3, 5, 7, 11, 13, 97):
            for v in range(1, 6):
                assert totient(p**v) == p ** (v - 1) * (p - 1)

    def test_prime_power_square_root_inequality(self):
        # p**(v/2) <= totient(p**v) except exactly at (p, v) = (2, 1),
        # compared by squaring to stay in integers.
        for p in [q for q in range(2, 101) if totient(q) == q - 1]:
            for v in range(1, 6):
                holds = p**v <= totient(p**v) ** 2
                assert holds == ((p, v) != (2, 1)), (p, v)

    @given(st.fractions(min_value=3, max_value=10**6, max_denominator=1000))
    def test_sqrt_below_x_minus_one(self, x):
        # sqrt(x) < x - 1 for x >= 3, squared to stay rational-exact.
        assert x < (x - 1) ** 2


class TestTotientTable:
    def test_sieve_matches_trial_division(self):
        table = TotientTable.up_to(3000)
        assert all(table[n] == totient(n) for n in range(1, 3001))

    def test_first_entry_and_primes(self):
        table = TotientTable.up_to(100)
        assert table[1] == 1
        for p in (2, 3, 5, 7, 53, 97):
            assert table[p] == p - 1

    def test_bounds_enforced(self):
        table = TotientTable.up_to(10)
        with pytest.raises(IndexError):
            table[0]
        with pytest.raises(IndexError):
            table[11]


class TestDivisors:
    def test_pinned_values(self):
        assert divisors(1) == (1,)
        assert divisors(12) == (1, 2, 3, 4, 6, 12)
        assert divisors(13) == (1, 13)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            divisors(0)

    @given(st.integers(min_value=1, max_value=3000))
    def test_matches_brute_scan(self, m):
        assert list(divisors(m)) == brute_divisors(m)


class TestLcmUpto:
    def test_pinned_values(self):
        assert lcm_upto(3) == 6
        assert lcm_upto(4) == 12
        assert lcm_upto(5) == 60
        assert lcm_upto(6) == 60

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            lcm_upto(0)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
    def test_monotone_and_divisible(self, a, b):
        small, large = sorted((a, b))
        assert lcm_upto(large) % lcm_upto(small) == 0


class TestCyclotomic:
    def test_pinned_values(self):
        assert cyclotomic(1) == IntPoly([-1, 1])
        assert cyclotomic(2) == IntPoly([1, 1])
        assert cyclotomic(6) == IntPoly([1, -1, 1])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            cyclotomic(0)

    @given(st.integers(min_value=1, max_value=120))
    @settings(max_examples=60)
    def test_monic_of_totient_degree(self, n):
        gamma = cyclotomic(n)
        assert gamma.is_monic()
        assert gamma.degree == totient(n)

    @given(st.integers(min_value=1, max_value=48))
    @settings(max_examples=48)
    def test_divisor_product_identity(self, m):
        product = IntPoly.one()
        for j in divisors(m):
            product = product * cyclotomic(j)
        assert product == IntPoly.cyclic(m)

    def test_fresh_cache_is_filled_and_reused(self):
        first = cyclotomic(6)
        assert cyclotomic(6) is first
        cyclotomic.cache_clear()
        assert cyclotomic.cache_info().currsize == 0
        rebuilt = cyclotomic(6)
        assert rebuilt == first and rebuilt is not first
        # gamma_6 is built from gamma_1, gamma_2 and gamma_3, which stay memoised.
        assert cyclotomic.cache_info().currsize == 4
        assert cyclotomic(6) is rebuilt
        for n in (0, -3):
            with pytest.raises(ValueError):
                cyclotomic(n)


class TestNu:
    def test_pinned_values(self):
        assert nu_poly(1) == IntPoly([-1, 1])
        assert nu_poly(2) == IntPoly([1, -1, -1, 1])
        assert nu_poly(10).degree == 55

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            nu_poly(0)

    def test_triangular_degree(self):
        for n in (1, 2, 3, 7, 20):
            assert nu_poly(n).degree == n * (n + 1) // 2

    def test_cyclotomic_multiplicity_structure(self):
        # nu_n is the product of gamma_j to the power floor(n/j).
        for n in (1, 2, 3, 5, 8, 13, 21, 40):
            product = IntPoly.one()
            for j in range(1, n + 1):
                product = product * cyclotomic(j) ** (n // j)
            assert product == nu_poly(n), n


class TestPi:
    def test_pinned_values_product_route(self):
        assert pi_poly_product(1) == IntPoly([-1, 1])
        assert pi_poly_product(3) == IntPoly([-1, -1, 0, 1, 1])
        assert pi_poly_product(10).degree == 32

    def test_pinned_values_gcd_route(self):
        assert pi_poly_gcd(1) == IntPoly([-1, 1])
        assert pi_poly_gcd(2) == IntPoly([-1, 0, 1])
        assert pi_poly_gcd(3) == IntPoly([-1, -1, 0, 1, 1])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            pi_poly_product(0)
        with pytest.raises(ValueError):
            pi_poly_gcd(0)

    def test_routes_agree_small(self):
        for n in range(1, 11):
            assert pi_poly_gcd(n) == pi_poly_product(n), n

    def test_degree_is_totient_sum(self):
        for n in (1, 5, 12, 30):
            assert pi_poly_product(n).degree == sum(totient(j) for j in range(1, n + 1))


class TestTorsionBound:
    def test_pinned_values(self):
        assert torsion_bound(1) == 2
        assert torsion_bound(2) == 6
        assert torsion_bound(3) == 6
        assert torsion_bound(4) == 12

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            torsion_bound(0)

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=40)
    def test_definition_and_quadratic_cap(self, d):
        n = torsion_bound(d)
        assert n <= 2 * d * d
        assert totient(n) <= d
        # every m beyond n has totient exceeding d; checking to 4d^2+16 covers
        # the whole region where the totient could still be small
        assert all(totient(m) > d for m in range(n + 1, 4 * d * d + 16))


class TestTotientIndices:
    @pytest.mark.parametrize("d", range(1, 13))
    def test_matches_brute_force(self, d):
        expected = tuple(
            (j, brute_totient(j)) for j in range(1, 2 * d * d + 1) if brute_totient(j) <= d
        )
        assert totient_indices(d) == expected
        assert torsion_bound(d) == expected[-1][0]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            totient_indices(0)

    @pytest.mark.parametrize("d", [1, 2, 7, 12])
    def test_map_is_the_same_pairs_memoised(self, d):
        phi = totient_index_map(d)
        assert dict(phi) == dict(totient_indices(d))
        assert totient_index_map(d) is phi
        with pytest.raises(TypeError):
            phi[10**9] = 1  # type: ignore[index]


class TestMaxPeriod:
    def test_pinned_values(self):
        assert max_torsion_period(1) == (2, frozenset({2}))
        assert max_torsion_period(2) == (6, frozenset({6}))
        assert max_torsion_period(4) == (12, frozenset({12}))

    def test_guard(self):
        with pytest.raises(ValueError):
            max_torsion_period(25)
        with pytest.raises(ValueError):
            max_torsion_period(0)

    def test_matches_exhaustive_oracle(self):
        for d in range(1, 9):
            period, witness = max_torsion_period(d)
            assert period == oracle_max_period(d), d
            assert sum(totient(j) for j in witness) <= d
            assert math.lcm(*witness) == period

    def test_deterministic_witness(self):
        assert max_torsion_period(8) == max_torsion_period(8)
