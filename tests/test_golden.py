"""Frozen coefficient tables for gamma_n (n <= 64) and pi_n (n <= 24).

The files pin the exact text form; sympy recomputes both families live as
an independent oracle, so a regression in either the library or the frozen
data gets caught from two directions.
"""

import json
from pathlib import Path

import sympy
from sympy.abc import x

from torsionkit.numbertheory import cyclotomic, pi_poly_product, totient
from torsionkit.polynomials import IntPoly

GOLDEN = Path(__file__).parent / "golden"


def load(name):
    with open(GOLDEN / name) as fh:
        return json.load(fh)


def sympy_coeffs(expr):
    return [int(c) for c in reversed(sympy.Poly(expr, x).all_coeffs())]


class TestCyclotomicGolden:
    def test_library_matches_golden(self):
        table = load("cyclotomic_64.json")
        assert len(table) == 64
        for n in range(1, 65):
            assert cyclotomic(n).to_data() == table[str(n)], n

    def test_golden_matches_sympy(self):
        table = load("cyclotomic_64.json")
        for n in range(1, 65):
            assert table[str(n)] == sympy_coeffs(sympy.cyclotomic_poly(n, x)), n

    def test_golden_degrees_are_totients(self):
        table = load("cyclotomic_64.json")
        for n, coeffs in table.items():
            assert len(coeffs) - 1 == totient(int(n))
            assert coeffs[-1] == 1

    def test_round_trip_through_text_form(self):
        table = load("cyclotomic_64.json")
        for n, coeffs in table.items():
            assert IntPoly(coeffs) == cyclotomic(int(n))


class TestPiGolden:
    def test_library_matches_golden(self):
        table = load("pi_24.json")
        assert len(table) == 24
        for n in range(1, 25):
            assert pi_poly_product(n).to_data() == table[str(n)], n

    def test_golden_matches_sympy(self):
        table = load("pi_24.json")
        prod = sympy.Integer(1)
        for n in range(1, 25):
            prod = sympy.expand(prod * sympy.cyclotomic_poly(n, x))
            assert table[str(n)] == sympy_coeffs(prod), n

    def test_degrees_are_totient_sums(self):
        table = load("pi_24.json")
        for n, coeffs in table.items():
            expected = sum(totient(j) for j in range(1, int(n) + 1))
            assert len(coeffs) - 1 == expected
