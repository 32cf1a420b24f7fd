"""Exact-arithmetic toolkit deciding whether two distinct powers of a
rational square matrix coincide, with independently checkable certificates.

The central fact: M has M^p = M^q for some p != q exactly when its minimal
polynomial is z**k times a product of distinct cyclotomic polynomials, and
in that case the power sequence becomes periodic at exponent max(k, 1) with
period the lcm of the cyclotomic indices. Everything here is exact rational
arithmetic; no floating point touches any result.
"""

from .errors import InternalConsistencyError, MatrixParseError
from .matrices import (
    RatMatrix,
    block_diag,
    companion_matrix,
    horner_matrix_eval,
    mat_mul,
    mat_pow,
    max_bit_length,
    minimal_polynomial,
)
from .mpp import MppInstance, build_mpp_instance, search_matrix_power
from .numbertheory import (
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
from .polynomials import (
    NEG_INFINITY,
    IntPoly,
    RatPoly,
    int_gcd,
)
from .torsion import (
    TorsionCertificate,
    VerifyOutcome,
    check_power_equivalence,
    decide_torsion_annihilation,
    oracle_cycle_detect,
    torsion_certificate,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "InternalConsistencyError",
    "MatrixParseError",
    "RatMatrix",
    "block_diag",
    "companion_matrix",
    "horner_matrix_eval",
    "mat_mul",
    "mat_pow",
    "max_bit_length",
    "minimal_polynomial",
    "MppInstance",
    "build_mpp_instance",
    "search_matrix_power",
    "TotientTable",
    "cyclotomic",
    "divisors",
    "lcm_upto",
    "max_torsion_period",
    "nu_poly",
    "pi_poly_gcd",
    "pi_poly_product",
    "torsion_bound",
    "totient",
    "totient_index_map",
    "totient_indices",
    "NEG_INFINITY",
    "IntPoly",
    "RatPoly",
    "int_gcd",
    "TorsionCertificate",
    "VerifyOutcome",
    "check_power_equivalence",
    "decide_torsion_annihilation",
    "oracle_cycle_detect",
    "torsion_certificate",
    "verify_certificate",
    "__version__",
]
