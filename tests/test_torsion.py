"""The decision procedures and certificate machinery."""

import json
import time
import tracemalloc
from fractions import Fraction
from random import Random

import pytest

import torsionkit.numbertheory as numbertheory_module
import torsionkit.torsion as torsion_module
from torsionkit.matrices import (
    RatMatrix,
    block_diag,
    companion_matrix,
    horner_matrix_eval,
    mat_mul,
    mat_pow,
)
from torsionkit.numbertheory import (
    cyclotomic,
    pi_poly_product,
    torsion_bound,
    totient,
    totient_index_map,
)
from torsionkit.polynomials import IntPoly, RatPoly
from torsionkit.torsion import (
    TorsionCertificate,
    check_power_equivalence,
    decide_torsion_annihilation,
    oracle_cycle_detect,
    torsion_certificate,
    verify_certificate,
)

from _corpus import get_corpus, permutation_matrix
from _oracles import conjugate, rational_diagonal_pair, unimodular_pair

ROTATION = RatMatrix([[0, -1], [1, 0]])
NILPOTENT = RatMatrix([[0, 1], [0, 0]])
UNIPOTENT = RatMatrix([[1, 1], [0, 1]])
GAMMA6_COMPANION = RatMatrix([[0, -1], [1, 1]])


def tampered(cert: TorsionCertificate, **changes) -> TorsionCertificate:
    fields = {
        "torsion": cert.torsion,
        "d": cert.d,
        "k": cert.k,
        "J": cert.J,
        "preperiod": cert.preperiod,
        "period": cert.period,
        "mu": cert.mu,
    }
    fields.update(changes)
    return TorsionCertificate(**fields)


class TestAnnihilationDecision:
    def test_identity_is_torsion(self):
        assert decide_torsion_annihilation(RatMatrix.identity(3)) is True

    def test_growing_scalar_is_not(self):
        assert decide_torsion_annihilation(RatMatrix([[2]])) is False

    def test_quarter_turn_is_torsion(self):
        assert decide_torsion_annihilation(ROTATION) is True

    def test_faithful_mode_agrees_on_samples(self):
        for m in (RatMatrix.identity(2), ROTATION, NILPOTENT, UNIPOTENT, RatMatrix([[2]])):
            assert decide_torsion_annihilation(m, faithful=True) == \
                decide_torsion_annihilation(m, faithful=False)


def route_bound(d: int, faithful: bool) -> int:
    return 2 * d * d if faithful else torsion_bound(d)


class TestAnnihilatorMemo:
    """z**d * pi_n is built once per (order, route) and evaluated in integers."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        torsion_module._annihilator.cache_clear()
        yield
        torsion_module._annihilator.cache_clear()

    def test_one_build_per_order_and_route(self, monkeypatch):
        built = []

        def counting_pi(n, *args, **kwargs):
            built.append(n)
            return pi_poly_product(n, *args, **kwargs)

        monkeypatch.setattr(torsion_module, "pi_poly_product", counting_pi)
        samples = {d: [RatMatrix.identity(d), permutation_matrix((d,)), RatMatrix.scalar(d, 2)]
                   for d in (1, 2, 3, 4)}
        for _ in range(3):
            for d, matrices in samples.items():
                for m in matrices:
                    for faithful in (False, True):
                        decide_torsion_annihilation(m, faithful=faithful)
        assert built == [route_bound(d, f) for d in (1, 2, 3, 4) for f in (False, True)]

    @pytest.mark.parametrize("faithful", [False, True])
    def test_evaluated_degree_is_the_benchmark_identity(self, monkeypatch, faithful):
        degrees = []

        def spy(p, m):
            degrees.append(p.degree)
            return horner_matrix_eval(p, m)

        monkeypatch.setattr(torsion_module, "horner_matrix_eval", spy)
        for d in range(1, 6):
            degrees.clear()
            assert decide_torsion_annihilation(permutation_matrix((d,)), faithful=faithful) is True
            n = route_bound(d, faithful)
            assert degrees == [d + sum(totient(j) for j in range(1, n + 1))], d

    def test_annihilator_is_the_shifted_product(self):
        for d in range(1, 5):
            for faithful in (False, True):
                n = route_bound(d, faithful)
                direct = pi_poly_product(n).to_rational().shifted(d)
                assert torsion_module._annihilator(d, faithful).to_rational() == direct


class TestCertificate:
    def test_identity(self):
        c = torsion_certificate(RatMatrix.identity(2))
        assert c.torsion and c.k == 0 and c.J == frozenset({1})
        assert c.preperiod == 0 and c.period == 1
        assert c.mu == RatPoly([-1, 1])

    def test_nilpotent(self):
        c = torsion_certificate(NILPOTENT)
        assert c.torsion and c.k == 2 and c.J == frozenset()
        assert c.preperiod == 2 and c.period == 1

    def test_gamma6_companion(self):
        c = torsion_certificate(GAMMA6_COMPANION)
        assert c.torsion and c.k == 0 and c.J == frozenset({6}) and c.period == 6

    def test_unipotent_not_torsion(self):
        c = torsion_certificate(UNIPOTENT)
        assert not c.torsion
        assert c.J is None and c.period is None
        assert c.mu == RatPoly([1, -2, 1])

    def test_mixed_preperiod_and_period(self):
        m = block_diag(
            companion_matrix(RatPoly([0, 0, 1])),
            companion_matrix(cyclotomic(4).to_rational()),
        )
        c = torsion_certificate(m)
        assert (c.k, c.J, c.preperiod, c.period) == (2, frozenset({4}), 2, 4)

    def test_non_integral_mu_is_not_torsion(self):
        # mu = z^2 - z/2 = z * (z - 1/2): refused before any trial division.
        c = torsion_certificate(RatMatrix([[0, 0], [0, Fraction(1, 2)]]))
        assert c == TorsionCertificate(False, 2, 1, None, 1, None, RatPoly([0, Fraction(-1, 2), 1]))
        assert c.to_data() == {"torsion": False, "d": 2, "k": 1, "preperiod": 1, "mu": [0, "-1/2", 1]}

    def test_rational_conjugate_of_cyclotomic_blocks(self):
        # Rational entries, but mu = z^2 * gamma_5 * gamma_6 lies in Z[z].
        blocks = block_diag(
            NILPOTENT,
            companion_matrix(cyclotomic(5).to_rational()),
            GAMMA6_COMPANION,
        )
        rng = Random(5)
        for _ in range(4):
            m = conjugate(blocks, *rational_diagonal_pair(rng, blocks.order))
            assert any(e.denominator != 1 for row in m.rows for e in row)
            c = torsion_certificate(m)
            assert (c.torsion, c.k, c.J, c.period) == (True, 2, frozenset({5, 6}), 30)
            assert c.mu == RatPoly([0, 0, 1]) * (cyclotomic(5) * cyclotomic(6)).to_rational()
            assert verify_certificate(m, c)

    def test_no_rational_division_or_conversion(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("certificate arithmetic left Z[z]")

        corpus = get_corpus()
        monkeypatch.setattr(RatPoly, "__divmod__", refuse)
        monkeypatch.setattr(IntPoly, "to_rational", refuse)
        for e in corpus:
            c = torsion_certificate(e.matrix)
            assert c.torsion == e.torsion, e.name
            if c.torsion:
                assert verify_certificate(e.matrix, c), e.name

    def test_trial_division_builds_no_polynomial(self, monkeypatch):
        corpus = get_corpus()
        expected = [torsion_certificate(e.matrix) for e in corpus]  # fills the cyclotomic memo

        def refuse(*args):
            raise AssertionError("trial division built an IntPoly quotient and remainder")

        monkeypatch.setattr(IntPoly, "__divmod__", refuse)
        assert [torsion_certificate(e.matrix) for e in corpus] == expected

    def test_minimal_polynomial_once_per_certificate(self, monkeypatch):
        calls = []
        original = torsion_module.minimal_polynomial

        def counting(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(torsion_module, "minimal_polynomial", counting)
        matrices = [
            RatMatrix([[Fraction(1, 2)]]),  # mu has a non-integer coefficient
            RatMatrix([[0, -2], [Fraction(1, 2), 0]]),  # integer mu, den > 1
            ROTATION,
            NILPOTENT,
            UNIPOTENT,
            RatMatrix([[2, 1], [1, 1]]),
        ]
        for m in matrices:
            calls.clear()
            torsion_certificate(m)
            assert calls == [m]

    @pytest.mark.parametrize(
        "rows, document",
        [
            # mu = z - 1/2 answers non-torsion before any trial division.
            ([["1/2"]], '{"torsion": false, "d": 1, "k": 0, "preperiod": 0, "mu": ["-1/2", 1]}'),
            # Rational conjugates of rotations: den > 1, integer mu.
            (
                [[0, -2], ["1/2", 0]],
                '{"torsion": true, "d": 2, "k": 0, "J": [4], "preperiod": 0, '
                '"period": 4, "mu": [1, 0, 1]}',
            ),
            (
                [[1, "-2/3"], ["3/2", 0]],
                '{"torsion": true, "d": 2, "k": 0, "J": [6], "preperiod": 0, '
                '"period": 6, "mu": [1, -1, 1]}',
            ),
        ],
    )
    def test_rational_matrix_documents_pinned(self, rows, document):
        m = RatMatrix([[Fraction(e) for e in row] for row in rows])
        assert m.den > 1
        assert json.dumps(torsion_certificate(m).to_data()) == document

    def test_data_round_trip_torsion(self):
        c = torsion_certificate(GAMMA6_COMPANION)
        doc = c.to_data()
        assert list(doc) == ["torsion", "d", "k", "J", "preperiod", "period", "mu"]
        assert TorsionCertificate.from_data(json.loads(json.dumps(doc))) == c

    def test_data_round_trip_non_torsion(self):
        c = torsion_certificate(UNIPOTENT)
        doc = c.to_data()
        assert list(doc) == ["torsion", "d", "k", "preperiod", "mu"]
        assert TorsionCertificate.from_data(doc) == c

    def test_from_data_missing_field(self):
        with pytest.raises(ValueError):
            TorsionCertificate.from_data({"torsion": True})

    # A certificate for diag(-1, 1), J = {1, 2}, with one field malformed.
    GOOD_DOC = {"torsion": True, "d": 2, "k": 0, "J": [1, 2], "preperiod": 0,
                "period": 2, "mu": [-1, 0, 1]}

    @pytest.mark.parametrize(
        "field, value",
        [
            ("torsion", "false"),
            ("torsion", 1),
            ("d", 2.9),
            ("d", True),
            ("k", "0"),
            ("k", -1),
            ("period", 2.0),
            ("J", "12"),
            ("J", [1, 2.0]),
            ("J", [False, 2]),
            ("mu", "z^2-1"),
            ("mu", [-1, 0, {}]),
            ("mu", ["1/0", 0, 1]),
            ("J", [1, 2, 2]),
        ],
    )
    def test_from_data_refuses_malformed_field(self, field, value):
        assert TorsionCertificate.from_data(self.GOOD_DOC).torsion
        doc = dict(self.GOOD_DOC, **{field: value})
        with pytest.raises(ValueError, match=field if field != "mu" else "coefficient|'mu'"):
            TorsionCertificate.from_data(doc)

    def test_from_data_refuses_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            TorsionCertificate.from_data([self.GOOD_DOC])


class TestVerify:
    def test_genuine_certificates_pass(self):
        for m in (RatMatrix.identity(2), NILPOTENT, GAMMA6_COMPANION, ROTATION):
            outcome = verify_certificate(m, torsion_certificate(m))
            assert outcome and outcome.reason is None

    def test_non_torsion_certificate_rejected(self):
        with pytest.raises(ValueError):
            verify_certificate(UNIPOTENT, torsion_certificate(UNIPOTENT))

    def test_tampered_period_on_identity(self):
        # M^(0+2) = M^0 does hold for the identity, so the power identity
        # cannot catch this; the lcm cross-check does.
        c = torsion_certificate(RatMatrix.identity(2))
        outcome = verify_certificate(RatMatrix.identity(2), tampered(c, period=2))
        assert not outcome and outcome.reason == "period mismatch"

    def test_tampered_index_set(self):
        c = torsion_certificate(GAMMA6_COMPANION)
        outcome = verify_certificate(GAMMA6_COMPANION, tampered(c, J=frozenset({3})))
        assert not outcome and outcome.reason == "mu mismatch"

    def test_certificate_of_different_matrix(self):
        c = torsion_certificate(companion_matrix(cyclotomic(4).to_rational()))
        outcome = verify_certificate(GAMMA6_COMPANION, c)
        assert not outcome and outcome.reason == "annihilation fails"

    def test_order_mismatch(self):
        c = torsion_certificate(RatMatrix.identity(2))
        outcome = verify_certificate(RatMatrix.identity(3), c)
        assert not outcome and outcome.reason == "order mismatch"

    def test_degree_exceeds_order(self):
        c = torsion_certificate(RatMatrix.identity(2))
        oversized = tampered(
            c,
            J=frozenset({1, 2, 3}),
            mu=RatPoly([-1, 1]) * RatPoly([1, 1]) * RatPoly([1, 1, 1]),
        )
        outcome = verify_certificate(RatMatrix.identity(2), oversized)
        assert not outcome and outcome.reason == "degree exceeds order"

    @pytest.fixture
    def record_builds(self, monkeypatch):
        """Once called, records every cyclotomic, totient table, factored
        totient and shift that verification asks for."""

        def start():
            log = {"cyclotomic": [], "orders": [], "totient": [], "shifted": []}
            original_shifted = IntPoly.shifted

            # Each spy refuses work too large to finish, so that a missing
            # bound fails the test instead of hanging it.
            def recording_cyclotomic(n, *args):
                log["cyclotomic"].append(n)
                if n > 10**4:
                    raise AssertionError(f"verify set out to build gamma_{n}")
                return cyclotomic(n, *args)

            def recording_totient_index_map(d):
                log["orders"].append(d)
                return totient_index_map(d)

            # Factoring by trial division lives in numbertheory.totient;
            # nothing verify reaches may call it on a claimed index.
            def recording_totient(n):
                log["totient"].append(n)
                if n > 10**6:
                    raise AssertionError(f"verify set out to factor {n}")
                return totient(n)

            def recording_shifted(self, k):
                log["shifted"].append(k)
                if k > 10**4:
                    raise AssertionError(f"verify set out to shift by z^{k}")
                return original_shifted(self, k)

            monkeypatch.setattr(torsion_module, "cyclotomic", recording_cyclotomic)
            monkeypatch.setattr(torsion_module, "totient_index_map", recording_totient_index_map)
            monkeypatch.setattr(numbertheory_module, "totient", recording_totient)
            monkeypatch.setattr(IntPoly, "shifted", recording_shifted)
            return log

        return start

    def test_oversized_index_refused_before_building(self, record_builds):
        c = torsion_certificate(ROTATION)
        built = record_builds()
        outcome = verify_certificate(ROTATION, tampered(c, J=frozenset({4, 55440})))
        assert not outcome and outcome.reason == "mu mismatch"
        assert built["orders"] == [2]
        assert built["cyclotomic"] == [] and built["shifted"] == []

    def test_huge_prime_index_refused_before_factoring(self, record_builds):
        # Trial division would need about 1.5e9 steps to find phi(2^61 - 1);
        # the index is missing from the order-2 table, so nothing factors it.
        c = torsion_certificate(ROTATION)
        built = record_builds()
        outcome = verify_certificate(ROTATION, tampered(c, J=frozenset({4, 2**61 - 1})))
        assert not outcome and outcome.reason == "mu mismatch"
        assert built["orders"] == [2] and built["totient"] == []
        assert built["cyclotomic"] == [] and built["shifted"] == []

    def test_huge_preperiod_refused_before_shifting(self, record_builds):
        c = torsion_certificate(ROTATION)
        built = record_builds()
        outcome = verify_certificate(ROTATION, tampered(c, k=10**7, preperiod=10**7))
        assert not outcome and outcome.reason == "mu mismatch"
        assert built["cyclotomic"] == [] and built["shifted"] == []

    def test_degree_sum_mismatch_refused_before_building(self, record_builds):
        # phi(3) = 2 <= d, but k + phi(3) + phi(4) = 4 != deg(mu) = 2.
        c = torsion_certificate(ROTATION)
        built = record_builds()
        outcome = verify_certificate(ROTATION, tampered(c, J=frozenset({3, 4}), period=12))
        assert not outcome and outcome.reason == "mu mismatch"
        assert built["cyclotomic"] == [] and built["shifted"] == []

    def test_same_degree_swap_still_rebuilt(self, record_builds):
        # J = {3} has the degree of J = {6}, so only the rebuild can tell.
        c = torsion_certificate(GAMMA6_COMPANION)
        built = record_builds()
        outcome = verify_certificate(GAMMA6_COMPANION, tampered(c, J=frozenset({3}), period=3))
        assert not outcome and outcome.reason == "mu mismatch"
        assert built["cyclotomic"] == [3]

    def test_tampered_preperiod(self):
        c = torsion_certificate(NILPOTENT)
        outcome = verify_certificate(NILPOTENT, tampered(c, preperiod=1))
        assert not outcome and outcome.reason == "preperiod mismatch"


class TestOracle:
    def test_quarter_turn_first_repeat(self):
        assert oracle_cycle_detect(ROTATION, 10) == (1, 5)

    def test_nilpotent_first_repeat(self):
        assert oracle_cycle_detect(NILPOTENT, 10) == (2, 3)

    def test_growth_never_repeats(self):
        assert oracle_cycle_detect(RatMatrix([[2]]), 100) is None

    def test_cap_too_small_sees_nothing(self):
        assert oracle_cycle_detect(ROTATION, 4) is None

    def test_cap_validated(self):
        with pytest.raises(ValueError):
            oracle_cycle_detect(ROTATION, 0)

    def test_first_repeat_structure_on_samples(self):
        rng = Random(5)
        sample = rng.sample([e for e in get_corpus() if e.torsion], 15)
        for e in sample:
            p, q = oracle_cycle_detect(e.matrix, max(e.preperiod, 1) + e.period + 1)
            assert p == max(e.preperiod, 1), e.name
            assert q - p == e.period, e.name

    def test_same_repeat_as_string_keyed_walk(self):
        def string_keyed(m, cap):
            seen = {}
            power = RatMatrix.identity(m.order)
            for e in range(1, cap + 1):
                power = mat_mul(power, m)
                key = tuple([str(x) for row in power.rows for x in row])
                if key in seen:
                    return seen[key], e
                seen[key] = e
            return None

        for e in get_corpus():
            cap = max(e.preperiod, 1) + e.period + 1 if e.torsion else 12
            assert oracle_cycle_detect(e.matrix, cap) == string_keyed(e.matrix, cap), e.name

    def test_digest_collisions_give_the_same_answer(self, monkeypatch):
        # With every power under one digest, each is compared with every
        # earlier power by value, and the answer must not change.
        sample = Random(7).sample(get_corpus(), 30)
        caps = [max(e.preperiod, 1) + e.period + 1 if e.torsion else 12 for e in sample]
        expected = [oracle_cycle_detect(e.matrix, cap) for e, cap in zip(sample, caps)]
        assert any(expected) and not all(expected)
        monkeypatch.setattr(torsion_module, "_power_digest", lambda m: b"")
        for e, cap, answer in zip(sample, caps, expected):
            assert oracle_cycle_detect(e.matrix, cap) == answer, e.name

    @pytest.mark.parametrize(
        "rows",
        [
            [[2**61]],  # every power hashes like [[1]] under the built-in hash
            [[2]],  # the built-in hash of 2^e repeats every 61 exponents
            [[1, 2**61 - 1], [0, 1]],  # every power hashes like the identity
        ],
    )
    def test_builtin_hash_collisions_cost_no_recomputation(self, monkeypatch, rows):
        # Powers that collide under the built-in hash of ints get distinct
        # digests, so no earlier power is recomputed: keyed on hash(power),
        # [[2^61]] at cap 5000 set out on about 12.5M such recomputations.
        # The spy fails at the first one rather than let the walk run on.
        def refuse(m, e):
            raise AssertionError(f"recomputed M^{e} on a false hit")

        m = RatMatrix(rows)
        assert hash(m) in {hash(mat_pow(m, 2)), hash(mat_pow(m, 62))}
        monkeypatch.setattr(torsion_module, "mat_pow", refuse)
        start = time.perf_counter()
        assert oracle_cycle_detect(m, 5000) is None
        assert time.perf_counter() - start < 20  # about 0.3 s on a 2-CPU host

    def test_memory_holds_one_power_at_a_time(self):
        # Keeping every power of this matrix up to the 1000th took about
        # 32 MiB of traced memory; its digests take a small fraction of that.
        rng = Random(8)
        m = RatMatrix(
            [[rng.choice((-1, 1)) * rng.randint(10, 99) for _ in range(8)] for _ in range(8)]
        )
        tracemalloc.start()
        try:
            assert oracle_cycle_detect(m, 1000) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_entries_past_the_digit_limit(self):
        # 10^5000 has 5001 decimal digits, past CPython's 4300-digit limit
        # on converting integers to text.
        assert oracle_cycle_detect(RatMatrix([[10]]), 5000) is None
        big = RatMatrix([[0, 10**5000], [Fraction(1, 10**5000), 0]])
        assert oracle_cycle_detect(big, 4) == (1, 3)


class TestPowerEquivalence:
    def test_negative_one(self):
        assert check_power_equivalence(RatMatrix([[-1]])) is True

    def test_quarter_turn(self):
        assert check_power_equivalence(ROTATION) is True
        assert mat_pow(ROTATION, 722) == mat_pow(ROTATION, 2)

    def test_growing_scalar(self):
        assert check_power_equivalence(RatMatrix([[2]])) is False

    def test_guard(self):
        with pytest.raises(ValueError):
            check_power_equivalence(RatMatrix.identity(4))

    def test_one_by_one_torsion_set(self):
        for value in (0, 1, -1):
            m = RatMatrix([[value]])
            assert check_power_equivalence(m) is True
            assert mat_pow(m, 3) == mat_pow(m, 1)


class TestStructuralInvariants:
    def test_block_composition(self):
        a = companion_matrix(cyclotomic(4).to_rational())
        b = block_diag(
            companion_matrix(RatPoly([0, 1])),
            companion_matrix(cyclotomic(3).to_rational()),
        )
        ca, cb = torsion_certificate(a), torsion_certificate(b)
        combined = torsion_certificate(block_diag(a, b))
        assert combined.torsion
        assert combined.period == 12 == ca.period * cb.period
        assert combined.preperiod == max(ca.preperiod, cb.preperiod) == 1

    def test_block_with_non_torsion_part(self):
        m = block_diag(ROTATION, UNIPOTENT)
        assert not torsion_certificate(m).torsion

    def test_similarity_invariance(self):
        rng = Random(11)
        for e in rng.sample(list(get_corpus()), 12):
            fwd, back = unimodular_pair(rng, e.matrix.order)
            twin = torsion_certificate(conjugate(e.matrix, fwd, back))
            base = torsion_certificate(e.matrix)
            assert twin.torsion == base.torsion, e.name
            assert (twin.preperiod, twin.period) == (base.preperiod, base.period), e.name
            assert twin.mu == base.mu, e.name

    def test_rational_entries_supported_throughout(self):
        half_rotation = RatMatrix([["1/2", "-1/2"], ["1/2", "1/2"]])
        m = RatMatrix.from_data(half_rotation.to_data())
        c = torsion_certificate(m)
        # eigenvalues (1 +- i)/2 have modulus sqrt(2)/2 < 1, not roots of unity
        assert not c.torsion
