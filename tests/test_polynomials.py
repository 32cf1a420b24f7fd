"""Polynomial arithmetic: examples pinned by hand plus property tests."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionkit import polynomials
from torsionkit.errors import InternalConsistencyError
from torsionkit.matrices import RatMatrix, horner_matrix_eval
from torsionkit.numbertheory import pi_poly_product
from torsionkit.polynomials import NEG_INFINITY, IntPoly, RatPoly, int_gcd

from _oracles import euclid_gcd

Z = RatPoly([0, 1])

rationals = st.fractions(
    min_value=-30, max_value=30, max_denominator=12
)
rat_polys = st.builds(RatPoly, st.lists(rationals, max_size=6))
nonzero_rat_polys = rat_polys.filter(lambda p: not p.is_zero())
int_polys = st.builds(
    IntPoly, st.lists(st.integers(min_value=-40, max_value=40), max_size=6)
)
nonzero_int_polys = int_polys.filter(lambda p: not p.is_zero())


class TestCanonicalForm:
    def test_trailing_zeros_stripped(self):
        assert RatPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).coeffs == ()

    def test_zero_degree_marker(self):
        assert RatPoly([]).degree == NEG_INFINITY
        assert RatPoly([0, 0]).degree == NEG_INFINITY
        assert NEG_INFINITY < 0

    def test_entries_coerced_to_fractions(self):
        p = RatPoly([1, 2])
        assert all(isinstance(c, Fraction) for c in p.coeffs)

    def test_int_poly_rejects_fractions(self):
        with pytest.raises(TypeError):
            IntPoly([Fraction(1, 2)])

    @given(rat_polys)
    def test_canonical_by_construction(self, p):
        assert not p.coeffs or p.coeffs[-1] != 0

    def test_lossless_int_to_rational(self):
        p = IntPoly([3, -7, 11])
        assert p.to_rational().coeffs == (3, -7, 11)


class TestAddition:
    def test_cross_terms(self):
        assert RatPoly([-1, 1]) + RatPoly([1, 1]) == RatPoly([0, 2])

    def test_identity(self):
        p = RatPoly([2, 0, 5])
        assert p + RatPoly.zero() == p

    def test_cancellation_recanonicalizes(self):
        total = RatPoly([-1, 0, 1]) + RatPoly([1, 0, -1])
        assert total.is_zero() and total.coeffs == ()

    @given(rat_polys, rat_polys, rat_polys)
    def test_distributivity(self, a, b, c):
        assert (a + b) * c == a * c + b * c

    @given(rat_polys, rat_polys)
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a


class TestMultiplication:
    def test_difference_of_squares(self):
        assert RatPoly([-1, 1]) * RatPoly([1, 1]) == RatPoly([-1, 0, 1])

    def test_cubic_expansion(self):
        assert RatPoly([-1, 1]) * RatPoly([-1, 0, 1]) == RatPoly([1, -1, -1, 1])

    def test_absorbing_zero(self):
        assert (RatPoly([3, 1]) * RatPoly.zero()).is_zero()

    @given(rat_polys, rat_polys)
    def test_degree_additivity(self, a, b):
        if a.is_zero() or b.is_zero():
            assert (a * b).is_zero()
        else:
            assert (a * b).degree == a.degree + b.degree

    @given(rat_polys, st.integers(min_value=0, max_value=4))
    def test_pow_matches_repeated_product(self, p, n):
        expected = RatPoly.one()
        for _ in range(n):
            expected = expected * p
        assert p**n == expected


class TestDerivative:
    def test_cubic(self):
        assert RatPoly([1, -1, -1, 1]).derivative() == RatPoly([-1, -2, 3])

    def test_constant(self):
        assert RatPoly([7]).derivative().is_zero()

    def test_variable(self):
        assert Z.derivative() == RatPoly.one()

    @given(rat_polys, rat_polys)
    def test_product_rule(self, p, q):
        lhs = (p * q).derivative()
        assert lhs == p.derivative() * q + p * q.derivative()

    @given(rat_polys, rat_polys)
    def test_linearity(self, p, q):
        assert (p + q).derivative() == p.derivative() + q.derivative()


class TestDivision:
    def test_exact_cubic(self):
        q, r = divmod(RatPoly([1, -1, -1, 1]), RatPoly([-1, 1]))
        assert q == RatPoly([-1, 0, 1]) and r.is_zero()

    def test_self_division(self):
        q, r = divmod(RatPoly([1, 0, 1]), RatPoly([1, 0, 1]))
        assert q == RatPoly.one() and r.is_zero()

    def test_low_degree_numerator(self):
        q, r = divmod(RatPoly([1, 1]), RatPoly([1, 0, 1]))
        assert q.is_zero() and r == RatPoly([1, 1])

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divmod(RatPoly([1, 1]), RatPoly.zero())

    @given(rat_polys, nonzero_rat_polys)
    def test_round_trip(self, a, b):
        q, r = divmod(a, b)
        assert a == q * b + r
        assert r.degree < b.degree


class TestGcd:
    """int_gcd worked by hand, and its gcd laws read over Q[z]."""

    def test_euclid_by_hand(self):
        assert int_gcd(IntPoly([1, -1, -1, 1]), IntPoly([-1, -2, 3])) == IntPoly([-1, 1])

    def test_one_zero_input(self):
        assert int_gcd(IntPoly([2, 2]), IntPoly.zero()) == IntPoly([2, 2])
        assert int_gcd(IntPoly.zero(), IntPoly([-3, -3])) == IntPoly([3, 3])

    def test_common_factor(self):
        assert int_gcd(IntPoly([-1, 0, 1]), IntPoly([1, 2, 1])) == IntPoly([1, 1])

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            int_gcd(IntPoly.zero(), IntPoly.zero())

    @given(int_polys, int_polys)
    def test_divides_both_and_monic(self, a, b):
        if a.is_zero() and b.is_zero():
            return
        g = int_gcd(a, b).to_rational().monic()
        assert g.lead() == 1
        for p in (a, b):
            if not p.is_zero():
                assert (p.to_rational() % g).is_zero()

    @given(nonzero_int_polys, nonzero_int_polys, nonzero_int_polys)
    @settings(max_examples=50)
    def test_common_multiplier_scales_out(self, a, b, g):
        unit = IntPoly([1 if g.lead() > 0 else -1])
        assert int_gcd(a * g, b * g) == int_gcd(a, b) * g * unit

    @given(nonzero_int_polys, nonzero_int_polys)
    def test_matches_textbook_euclid(self, a, b):
        g = int_gcd(a, b).to_rational().monic()
        assert g == euclid_gcd(a.to_rational(), b.to_rational())


class TestIntGcd:
    def test_primitive_positive_leading(self):
        g = int_gcd(IntPoly([2, 2]), IntPoly([-4, -4]))
        assert g == IntPoly([2, 2])

    def test_constant_contents(self):
        assert int_gcd(IntPoly([6]), IntPoly([4])) == IntPoly([2])

    @given(nonzero_int_polys, nonzero_int_polys)
    @settings(max_examples=60)
    def test_divides_both(self, a, b):
        g = int_gcd(a, b)
        assert g.lead() > 0
        assert a.exact_div(g) * g == a
        assert b.exact_div(g) * g == b

    @given(nonzero_int_polys, nonzero_int_polys, nonzero_int_polys)
    @settings(max_examples=80)
    def test_matches_textbook_euclid_on_shared_factors(self, a, b, c):
        x, y = a * c, b * c
        g = int_gcd(x, y)
        assert g.to_rational().monic() == euclid_gcd(x.to_rational(), y.to_rational())
        contents = [q.content_and_primitive()[1] for q in (x, y, g)]
        assert contents[2] == math.gcd(contents[0], contents[1])

    def test_screen_prime_dividing_a_leading_coefficient(self):
        # Modulo the screen prime h = P*z + 1 is the constant 1, so the
        # images of h*(z+2) and h*(z+3) are coprime although the inputs are not.
        h = IntPoly([1, polynomials._SCREEN_PRIME])
        assert int_gcd(h * IntPoly([2, 1]), h * IntPoly([3, 1])) == h

    def test_images_sharing_a_factor_fall_back(self):
        p = polynomials._SCREEN_PRIME
        # z and z - P are coprime over Z but equal modulo P.
        assert int_gcd(IntPoly([0, 1]), IntPoly([-p, 1])) == IntPoly([1])
        # (z+1)*z and (z+1)*(z-P): the image gcd has degree 2, the true one 1.
        z_plus_1 = IntPoly([1, 1])
        g = int_gcd(z_plus_1 * IntPoly([0, 1]), z_plus_1 * IntPoly([-p, 1]))
        assert g == z_plus_1

    def test_coprime_inputs_skip_the_remainder_sequence(self, monkeypatch):
        def refuse(f, g):
            raise AssertionError("remainder sequence run on coprime input")

        monkeypatch.setattr(polynomials, "_pseudo_rem", refuse)
        pi = pi_poly_product(12)
        assert int_gcd(pi, pi.derivative()) == IntPoly([1])
        assert int_gcd(IntPoly([6, 6]), IntPoly([4, 8])) == IntPoly([2])


int_coeff_lists = st.lists(
    st.integers(min_value=-10**30, max_value=10**30), min_size=1, max_size=8
).filter(lambda cs: cs[-1] != 0)


class TestRemainderSequenceSteps:
    @given(int_coeff_lists, st.integers(min_value=1, max_value=10**20))
    def test_primitive_part_matches_content_split(self, coeffs, scale):
        scaled = [c * scale for c in coeffs]
        assert polynomials._primitive_list(scaled) == list(IntPoly(scaled).primitive().coeffs)

    def test_primitive_part_when_end_coefficients_overshoot(self):
        # gcd(6, -12) = 6, but the content is 3.
        assert polynomials._primitive_list([6, 3, -12]) == [-2, -1, 4]

    @given(int_coeff_lists, int_coeff_lists)
    def test_pseudo_remainder_is_a_scaled_remainder(self, f, g):
        if len(f) < len(g):
            f, g = g, f
        r = polynomials._pseudo_rem(f, g)
        expected = RatPoly(f) % RatPoly(g)
        if expected.is_zero():
            assert r == []
        else:
            assert len(r) < len(g)
            assert RatPoly(r).monic() == expected.monic()


class TestContentPrimitive:
    def test_even_content(self):
        assert IntPoly([-2, 0, 2]).content_and_primitive() == (1, 2, IntPoly([-1, 0, 1]))

    def test_negative_leading_sign_exposed(self):
        sign, content, primitive = IntPoly([0, -3]).content_and_primitive()
        assert (sign, content, primitive) == (-1, 3, IntPoly([0, 1]))

    def test_already_primitive(self):
        assert IntPoly([-1, 0, 1]).content_and_primitive() == (1, 1, IntPoly([-1, 0, 1]))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            IntPoly.zero().content_and_primitive()

    @given(nonzero_int_polys)
    def test_reconstruction(self, p):
        sign, content, primitive = p.content_and_primitive()
        assert sign in (-1, 1) and content > 0
        assert primitive.lead() > 0
        assert IntPoly([sign * content]) * primitive == p


def squarefree(p: IntPoly) -> IntPoly:
    """p / gcd(p, p'), made primitive: the squarefree part as pi_poly_gcd takes it."""
    return p.exact_div(int_gcd(p, p.derivative())).primitive()


class TestSquarefree:
    def test_repeated_root_flattened(self):
        assert squarefree(IntPoly([1, 2, 1])) == IntPoly([1, 1])

    def test_constant(self):
        assert squarefree(IntPoly([-5])) == IntPoly.one()

    @given(nonzero_int_polys)
    @settings(max_examples=60)
    def test_square_changes_nothing(self, p):
        assert squarefree(p * p) == squarefree(p)

    @given(nonzero_int_polys)
    @settings(max_examples=60)
    def test_result_is_squarefree(self, p):
        sf = squarefree(p)
        if sf.degree >= 1:
            assert int_gcd(sf, sf.derivative()) == IntPoly.one()


class TestMisc:
    def test_lead_of_zero_rejected(self):
        with pytest.raises(ValueError):
            RatPoly.zero().lead()

    def test_monic_of_zero_rejected(self):
        with pytest.raises(ValueError):
            RatPoly.zero().monic()

    def test_shift_is_z_power_multiplication(self):
        p = RatPoly([2, 3])
        assert p.shifted(2) == p * (Z * Z)

    def test_exact_div_detects_corruption(self):
        with pytest.raises(InternalConsistencyError):
            IntPoly([1, 1]).exact_div(IntPoly([0, 1]))

    @given(rat_polys, rationals)
    def test_evaluation_is_a_homomorphism(self, p, x):
        def at(f):
            return horner_matrix_eval(f, RatMatrix([[x]]))[0, 0]

        q = RatPoly([1, -2, 1])
        assert at(p * q) == at(p) * at(q)
        assert at(p + q) == at(p) + at(q)

    @given(rat_polys)
    def test_data_round_trip(self, p):
        data = p.to_data()
        assert all(isinstance(item, (int, str)) for item in data)
        assert RatPoly.from_data(data) == p

    def test_data_text_form(self):
        assert RatPoly([-1, 0, 1]).to_data() == [-1, 0, 1]
        assert RatPoly([Fraction(-1, 2)]).to_data() == ["-1/2"]

    def test_from_data_rejects_floats(self):
        with pytest.raises(ValueError):
            RatPoly.from_data([0.5])

    @given(int_polys)
    def test_int_data_round_trip(self, p):
        assert IntPoly(p.to_data()) == p


class TestSharedCore:
    """RatPoly and IntPoly share one arithmetic core and never mix."""

    @given(int_polys, int_polys, st.integers(0, 3), st.integers(0, 4))
    def test_int_arithmetic_commutes_with_to_rational(self, p, q, n, k):
        r, s = p.to_rational(), q.to_rational()
        results = [
            (p + q, r + s),
            (p - q, r - s),
            (-p, -r),
            (p * q, r * s),
            (p**n, r**n),
            (p.derivative(), r.derivative()),
            (p.shifted(k), r.shifted(k)),
        ]
        for got, expected in results:
            assert type(got) is IntPoly
            assert all(type(c) is int for c in got.coeffs)
            assert got.to_rational() == expected

    def test_repr_names_the_class(self):
        assert repr(RatPoly([-1, 0, 1])) == "RatPoly('z^2 - 1')"
        assert repr(IntPoly([-1, 0, 1])) == "IntPoly('z^2 - 1')"

    def test_rings_do_not_mix(self):
        assert RatPoly([1]) != IntPoly([1])
        with pytest.raises(TypeError):
            RatPoly([1, 1]) * IntPoly([1, 1])
        with pytest.raises(TypeError):
            IntPoly([1, 1]) + RatPoly([1, 1])
        with pytest.raises(TypeError):
            RatPoly([1, 1]) + 3


class TestReadRational:
    @pytest.mark.parametrize("token", ["1e400", "1E2", "-2.5e-3", "1e999999999"])
    def test_exponent_notation_refused(self, token):
        with pytest.raises(ValueError, match="exponent notation"):
            polynomials.read_rational(token, "number")
        with pytest.raises(ValueError, match="exponent notation"):
            RatPoly.from_data([1, token])

    @pytest.mark.parametrize(
        "token, value",
        [(7, 7), ("-3/6", Fraction(-1, 2)), ("0.5", Fraction(1, 2)), (" 12 ", 12)],
    )
    def test_exact_forms_accepted(self, token, value):
        assert polynomials.read_rational(token, "number") == value

    @pytest.mark.parametrize(
        "token, problem",
        [
            (True, "non-exact"),
            (0.5, "non-exact"),
            (None, "malformed"),
            ({}, "malformed"),
            ("x", "malformed"),
            ("1/0", "zero denominator"),
        ],
    )
    def test_refusals_are_value_errors(self, token, problem):
        with pytest.raises(ValueError, match=f"{problem}.*coefficient"):
            polynomials.read_rational(token, "coefficient")
