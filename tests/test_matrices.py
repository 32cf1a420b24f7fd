"""Exact matrix arithmetic: pinned examples plus algebraic property tests."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsionkit.matrices as matrices_module
from torsionkit.matrices import (
    RatMatrix,
    block_diag,
    companion_matrix,
    horner_matrix_eval,
    mat_mul,
    mat_pow,
    max_bit_length,
    minimal_polynomial,
)
from torsionkit.polynomials import IntPoly, RatPoly

from _oracles import (
    conjugate,
    textbook_eval,
    textbook_mat_mul,
    textbook_minimal_polynomial,
    unimodular_pair,
)

ROTATION = RatMatrix([[0, -1], [1, 0]])
NILPOTENT = RatMatrix([[0, 1], [0, 0]])

small_entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def square_matrices(max_order: int = 3):
    return st.integers(min_value=1, max_value=max_order).flatmap(
        lambda d: st.builds(
            RatMatrix,
            st.lists(
                st.lists(small_entries, min_size=d, max_size=d),
                min_size=d,
                max_size=d,
            ),
        )
    )


small_polys = st.builds(RatPoly, st.lists(small_entries, max_size=4))
int_polys = st.builds(IntPoly, st.lists(st.integers(min_value=-60, max_value=60), max_size=7))


# Zeros, signs and unlike denominators, so that the integer kernels' row
# and column scales differ from entry to entry.
mixed_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=1),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


def mixed_matrices(max_order: int = 5):
    return st.integers(min_value=1, max_value=max_order).flatmap(
        lambda d: st.builds(
            RatMatrix,
            st.lists(
                st.lists(mixed_entries, min_size=d, max_size=d),
                min_size=d,
                max_size=d,
            ),
        )
    )


@st.composite
def matrix_pairs(draw):
    d = draw(st.integers(min_value=1, max_value=5))
    grid = st.lists(
        st.lists(mixed_entries, min_size=d, max_size=d), min_size=d, max_size=d
    )
    return RatMatrix(draw(grid)), RatMatrix(draw(grid))


@st.composite
def matrix_triples(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    grid = st.lists(
        st.lists(small_entries, min_size=d, max_size=d), min_size=d, max_size=d
    )
    return RatMatrix(draw(grid)), RatMatrix(draw(grid)), RatMatrix(draw(grid))


class TestConstruction:
    def test_square_enforced(self):
        with pytest.raises(ValueError):
            RatMatrix([[1, 2], [3]])
        with pytest.raises(ValueError):
            RatMatrix([[1, 2]])
        with pytest.raises(ValueError):
            RatMatrix([])

    def test_entries_canonical(self):
        m = RatMatrix([[Fraction(2, 4)]])
        assert m[0, 0] == Fraction(1, 2)

    def test_identity_and_zeros(self):
        assert RatMatrix.identity(3).is_identity()
        assert RatMatrix.zeros(2).is_zero()
        assert RatMatrix.scalar(2, 5) == RatMatrix([[5, 0], [0, 5]])


class TestMul:
    def test_identity_neutral(self):
        m = RatMatrix([[1, 2], [3, 4]])
        assert mat_mul(RatMatrix.identity(2), m) == m

    def test_nilpotent_squares_to_zero(self):
        assert mat_mul(NILPOTENT, NILPOTENT).is_zero()

    def test_quarter_turn_squared(self):
        assert mat_mul(ROTATION, ROTATION) == RatMatrix([[-1, 0], [0, -1]])

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mat_mul(RatMatrix([[1]]), RatMatrix.identity(2))

    @given(matrix_pairs())
    @settings(max_examples=80)
    def test_matches_textbook_product(self, pair):
        a, b = pair
        product = mat_mul(a, b)
        assert product == textbook_mat_mul(a, b)
        assert type(product.rows) is tuple
        assert all(type(row) is tuple and len(row) == a.order for row in product.rows)
        assert all(type(e) is Fraction for row in product.rows for e in row)

    def test_mixed_denominators_pinned(self):
        a = RatMatrix([[Fraction(1, 2), Fraction(-1, 3)], [0, Fraction(5, 6)]])
        b = RatMatrix([[Fraction(3, 4), 0], [Fraction(-2, 5), 7]])
        assert mat_mul(a, b) == RatMatrix(
            [[Fraction(61, 120), Fraction(-7, 3)], [Fraction(-1, 3), Fraction(35, 6)]]
        )

    @given(matrix_triples())
    @settings(max_examples=40)
    def test_associativity(self, triple):
        a, b, c = triple
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


class TestPow:
    def test_zeroth_power(self):
        assert mat_pow(ROTATION, 0).is_identity()

    def test_quarter_turn_order_four(self):
        assert mat_pow(ROTATION, 4).is_identity()
        assert not mat_pow(ROTATION, 2).is_identity()

    def test_scalar_power(self):
        assert mat_pow(RatMatrix([[2]]), 10) == RatMatrix([[1024]])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mat_pow(ROTATION, -1)

    def test_huge_exponent_on_cyclic(self):
        import math

        assert mat_pow(ROTATION, math.factorial(12)).is_identity()

    @given(
        square_matrices(2),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=0, max_value=64),
    )
    @settings(max_examples=40)
    def test_exponent_additivity(self, m, a, b):
        assert mat_pow(m, a + b) == mat_mul(mat_pow(m, a), mat_pow(m, b))


class TestHorner:
    def test_constant_one(self):
        assert horner_matrix_eval(RatPoly([1]), ROTATION).is_identity()

    def test_variable(self):
        assert horner_matrix_eval(RatPoly([0, 1]), ROTATION) == ROTATION

    def test_quadratic(self):
        result = horner_matrix_eval(RatPoly([-1, 0, 1]), ROTATION)
        assert result == RatMatrix([[-2, 0], [0, -2]])

    @given(small_polys, small_polys, square_matrices(2))
    @settings(max_examples=40)
    def test_multiplicative(self, p, q, m):
        lhs = horner_matrix_eval(p * q, m)
        rhs = mat_mul(horner_matrix_eval(p, m), horner_matrix_eval(q, m))
        assert lhs == rhs

    @given(small_polys, mixed_matrices(max_order=4))
    @settings(max_examples=40)
    def test_matches_textbook_sum_of_powers(self, p, m):
        assert horner_matrix_eval(p, m) == textbook_eval(p, m)

    def test_one_product_per_coefficient(self, monkeypatch):
        calls = []

        def counting_mat_mul(a, b):
            calls.append(1)
            return mat_mul(a, b)

        monkeypatch.setattr(matrices_module, "mat_mul", counting_mat_mul)
        m = RatMatrix([[Fraction(1, 2), 1], [-1, 0]])
        for p in (RatPoly([5]), RatPoly([0, 1]), RatPoly([1, 0, 0, 0, 0, 0, -1]),
                  RatPoly([Fraction(1, 3), 0, 2, 0, 0, 1])):
            calls.clear()
            horner_matrix_eval(p, m)
            assert len(calls) == p.degree + 1

    @given(small_polys, small_polys, square_matrices(2))
    @settings(max_examples=40)
    def test_additive(self, p, q, m):
        lhs = horner_matrix_eval(p + q, m)
        assert lhs == horner_matrix_eval(p, m) + horner_matrix_eval(q, m)

    @given(int_polys, mixed_matrices(max_order=4))
    @settings(max_examples=40)
    def test_integer_polynomial_evaluates_as_its_rational_copy(self, p, m):
        result = horner_matrix_eval(p, m)
        assert result == horner_matrix_eval(p.to_rational(), m)
        assert all(type(e) is Fraction for row in result.rows for e in row)


class TestMinimalPolynomial:
    def test_identity_any_order(self):
        for d in (1, 2, 5):
            assert minimal_polynomial(RatMatrix.identity(d)) == RatPoly([-1, 1])

    def test_nilpotent(self):
        assert minimal_polynomial(NILPOTENT) == RatPoly([0, 0, 1])

    def test_two_distinct_eigenvalues(self):
        assert minimal_polynomial(RatMatrix([[1, 0], [0, 2]])) == RatPoly([2, -3, 1])

    @given(square_matrices())
    @settings(max_examples=60)
    def test_annihilates_and_degree_bounded(self, m):
        mu = minimal_polynomial(m)
        assert 1 <= mu.degree <= m.order
        assert mu.lead() == 1
        assert horner_matrix_eval(mu, m).is_zero()

    @given(mixed_matrices())
    @settings(max_examples=60)
    def test_matches_textbook_elimination(self, m):
        mu = minimal_polynomial(m)
        assert mu.lead() == 1
        assert textbook_eval(mu, m).is_zero()
        assert mu == textbook_minimal_polynomial(m)
        assert all(type(c) is Fraction for c in mu.coeffs)

    @given(mixed_matrices(max_order=2), mixed_matrices(max_order=1))
    @settings(max_examples=40)
    def test_repeated_blocks_drop_the_degree(self, a, b):
        # diag(A, A, B) has a minimal polynomial of degree at most
        # order(A) + 1, well below its order; the elimination must find it.
        m = block_diag(a, a, b)
        mu = minimal_polynomial(m)
        assert mu.degree <= a.order + 1
        assert mu == textbook_minimal_polynomial(m)

    @given(square_matrices(), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25)
    def test_similarity_invariance(self, m, seed):
        fwd, back = unimodular_pair(Random(seed), m.order)
        assert minimal_polynomial(conjugate(m, fwd, back)) == minimal_polynomial(m)

    def test_pinned_small_cases(self):
        assert minimal_polynomial(RatMatrix([[7]])) == RatPoly([-7, 1])
        assert minimal_polynomial(RatMatrix([[Fraction(-2, 3)]])) == RatPoly(
            [Fraction(2, 3), 1]
        )
        assert minimal_polynomial(RatMatrix([[0]])) == RatPoly([0, 1])
        assert minimal_polynomial(RatMatrix.zeros(4)) == RatPoly([0, 1])
        assert minimal_polynomial(RatMatrix.scalar(3, Fraction(5, 2))) == RatPoly(
            [Fraction(-5, 2), 1]
        )
        assert minimal_polynomial(RatMatrix([[2, 0], [0, 1]])) == RatPoly([2, -3, 1])

    @given(
        st.integers(min_value=1, max_value=6),
        st.fractions(min_value=-9, max_value=9, max_denominator=7),
    )
    @settings(max_examples=30)
    def test_scalar_matrices(self, d, value):
        assert minimal_polynomial(RatMatrix.scalar(d, value)) == RatPoly([-value, 1])

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_nilpotent_jordan_block(self, d):
        block = RatMatrix([[1 if j == i + 1 else 0 for j in range(d)] for i in range(d)])
        assert minimal_polynomial(block) == RatPoly([0] * d + [1])

    @given(
        st.sampled_from([(5, 3), (4, 2, 2), (3, 3), (2, 2, 2), (6, 1, 1), (1, 1, 1)]),
        st.data(),
    )
    @settings(max_examples=40)
    def test_permutations_with_no_cyclic_basis_vector(self, cycle_type, data):
        # No e_i generates the whole space: each lies in one cycle, so the
        # lcm over several basis vectors is needed, and with repeated cycle
        # lengths that lcm is smaller than the product.
        d = sum(cycle_type)
        places = data.draw(st.permutations(range(d)))
        image = list(range(d))
        start = 0
        for length in cycle_type:
            cycle = places[start:start + length]
            for k, src in enumerate(cycle):
                image[src] = cycle[(k + 1) % length]
            start += length
        m = RatMatrix([[1 if image[j] == i else 0 for j in range(d)] for i in range(d)])
        mu = minimal_polynomial(m)
        assert mu == textbook_minimal_polynomial(m)
        assert mu.degree < d

    @given(
        mixed_matrices(max_order=2),
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool),
            min_size=2,
            max_size=2,
        ),
    )
    @settings(max_examples=30)
    def test_rational_blocks_and_unscaling(self, a, scales):
        # Scaled copies of one block with unlike denominators: the lcm of
        # the denominators differs from every block's own.
        m = block_diag(a.scaled(scales[0]), a, a.scaled(scales[1]), a)
        assert minimal_polynomial(m) == textbook_minimal_polynomial(m)

    def test_no_matrix_products(self, monkeypatch):
        calls = []

        def counting_mat_mul(a, b):
            calls.append(1)
            return mat_mul(a, b)

        monkeypatch.setattr(matrices_module, "mat_mul", counting_mat_mul)
        for m in (
            RatMatrix([[Fraction(1, 2), 1, 0], [-1, 0, Fraction(3, 7)], [2, 2, 2]]),
            block_diag(ROTATION, ROTATION, RatMatrix([[3]])),
            RatMatrix.identity(4),
            RatMatrix.zeros(3),
        ):
            minimal_polynomial(m)
        assert calls == []

    def test_minimality_against_proper_divisors(self):
        # For diag(1, 2) neither z-1 nor z-2 annihilates, so degree 2 is
        # genuinely minimal.
        m = RatMatrix([[1, 0], [0, 2]])
        for candidate in (RatPoly([-1, 1]), RatPoly([-2, 1])):
            assert not horner_matrix_eval(candidate, m).is_zero()


class TestHelpers:
    def test_companion_round_trip(self):
        p = RatPoly([2, -3, 0, 1])
        assert minimal_polynomial(companion_matrix(p)) == p

    def test_companion_requires_monic(self):
        with pytest.raises(ValueError):
            companion_matrix(RatPoly([1, 2]))
        with pytest.raises(ValueError):
            companion_matrix(RatPoly([5]))

    def test_block_diag_layout(self):
        b = block_diag(RatMatrix([[2]]), ROTATION)
        assert b == RatMatrix([[2, 0, 0], [0, 0, -1], [0, 1, 0]])

    def test_block_diag_power_splits(self):
        b = block_diag(ROTATION, RatMatrix([[3]]))
        assert mat_pow(b, 4) == block_diag(RatMatrix.identity(2), RatMatrix([[81]]))

    def test_max_bit_length(self):
        assert max_bit_length(RatMatrix([[Fraction(5, 16)]])) == 5
        assert max_bit_length(RatMatrix.identity(2)) == 1
        big = mat_pow(RatMatrix([[2]]), 100)
        assert max_bit_length(big) == 101

    def test_data_round_trip(self):
        m = RatMatrix([[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
        assert RatMatrix.from_data(m.to_data()) == m
        assert m.to_data() == [["1/2", 3], [0, "-7/5"]]

    def test_from_data_rejects_floats_and_bools(self):
        with pytest.raises(ValueError):
            RatMatrix.from_data([[0.5]])
        with pytest.raises(ValueError):
            RatMatrix.from_data([[True]])

    @pytest.mark.parametrize("entry", [{}, None, "1/0", "x", "1e400", "1E2", "-2.5e-3"])
    def test_from_data_refuses_malformed_entries(self, entry):
        with pytest.raises(ValueError, match="matrix entry"):
            RatMatrix.from_data([[1, entry], [0, 1]])
