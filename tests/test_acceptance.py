"""Acceptance gate: nine exact-equality criteria with runtime budgets.

Each test prints one PASS/FAIL line in the terminal summary (see conftest).
All comparisons are tolerance-zero; the timed ones assert their wall-clock
budget explicitly.
"""

import functools
import json
import time
from math import factorial, lcm
from random import Random

from torsionkit.matrices import (
    RatMatrix,
    block_diag,
    companion_matrix,
    mat_pow,
)
from torsionkit.numbertheory import (
    TotientTable,
    cyclotomic,
    lcm_upto,
    max_torsion_period,
    pi_poly_gcd,
    pi_poly_product,
    totient,
)
from torsionkit.polynomials import IntPoly, int_gcd
from torsionkit import cli
from torsionkit.torsion import (
    decide_torsion_annihilation,
    oracle_cycle_detect,
    torsion_certificate,
    verify_certificate,
)
from torsionkit.mpp import build_mpp_instance, search_matrix_power

from _corpus import get_corpus, non_torsion_entries, torsion_entries
from _oracles import oracle_max_period

RESULTS = []


def criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def timed():
            start = time.perf_counter()
            try:
                detail = fn()
            except BaseException:
                RESULTS.append((num, title, False, time.perf_counter() - start, ""))
                raise
            RESULTS.append((num, title, True, time.perf_counter() - start, detail or ""))

        return timed

    return wrap


@criterion(1, "cyclotomic identities")
def test_criterion_1_cyclotomic_identities():
    start = time.perf_counter()
    cyclotomic.cache_clear()  # time a cold build
    for m in range(1, 65):
        product = IntPoly.one()
        for j in range(1, m + 1):
            if m % j == 0:
                product = product * cyclotomic(j)
        assert product == IntPoly.cyclic(m), m
    for n in range(1, 201):
        assert cyclotomic(n).degree == totient(n), n
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"budget 10s exceeded: {elapsed:.1f}s"
    return f"divisor products m<=64, degrees n<=200, {elapsed:.2f}s < 10s"


@criterion(2, "pi dual-route equality and squarefreeness")
def test_criterion_2_pi_routes():
    start = time.perf_counter()
    cyclotomic.cache_clear()  # time a cold build
    for n in range(1, 41):
        via_gcd = pi_poly_gcd(n)
        assert via_gcd == pi_poly_product(n), n
        assert int_gcd(via_gcd, via_gcd.derivative()) == IntPoly([1]), n
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"budget 60s exceeded: {elapsed:.1f}s"
    return f"n<=40 both routes + gcd(pi, pi')=1, {elapsed:.1f}s < 60s"


@criterion(3, "totient bounds")
def test_criterion_3_totient_bounds():
    start = time.perf_counter()
    table = TotientTable.up_to(10**4)
    for n in range(1, 10**4 + 1):
        phi = table[n]
        assert 2 * phi * phi >= n, n
        if n % 2 == 1 or n % 4 == 0:
            assert phi * phi >= n, n
    for p in (2, 3, 5, 7, 11, 13, 97):
        for v in range(1, 6):
            assert totient(p**v) == p ** (v - 1) * (p - 1)
    rng = Random(3)
    checked = 0
    while checked < 50:
        m, n = rng.randrange(2, 100), rng.randrange(2, 100)
        from math import gcd as int_gcd_fn

        if int_gcd_fn(m, n) == 1:
            assert totient(m * n) == totient(m) * totient(n)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"budget 5s exceeded: {elapsed:.1f}s"
    return f"n<=10^4 sqrt bounds + prime-power/multiplicativity, {elapsed:.2f}s < 5s"


@criterion(4, "decision corpus agreement")
def test_criterion_4_corpus_agreement():
    corpus = get_corpus()
    assert len(corpus) >= 200, f"corpus too small: {len(corpus)}"
    disagreements = []
    for e in corpus:
        cert = torsion_certificate(e.matrix)
        tight = decide_torsion_annihilation(e.matrix, faithful=False)
        faithful = decide_torsion_annihilation(e.matrix, faithful=True)
        if not (cert.torsion == tight == faithful == e.torsion):
            disagreements.append(e.name)
            continue
        if e.torsion:
            if (cert.preperiod, cert.period) != (e.preperiod, e.period):
                disagreements.append(e.name)
                continue
            first = max(e.preperiod, 1)
            if oracle_cycle_detect(e.matrix, first + e.period + 1) != (
                first,
                first + e.period,
            ):
                disagreements.append(e.name)
                continue
            if not verify_certificate(e.matrix, cert):
                disagreements.append(e.name)
        else:
            if oracle_cycle_detect(e.matrix, 25) is not None:
                disagreements.append(e.name)
    assert not disagreements, f"disagreements: {disagreements}"
    return f"{len(corpus)} matrices, all methods agree, zero disagreements"


@criterion(5, "lcm constants and growth")
def test_criterion_5_lcm_constants():
    assert lcm_upto(3) == 6
    assert lcm_upto(4) == 12
    assert lcm_upto(5) == 60
    assert lcm_upto(6) == 60
    for n in range(1, 17):
        assert lcm_upto(2 * n) >= 2**n, n
    return "ell(3..6) exact, ell(2n) >= 2^n for n<=16"


@criterion(6, "factorial power identity")
def test_criterion_6_power_identity():
    for value in (0, 1, -1):
        m = RatMatrix([[value]])
        assert mat_pow(m, 3) == mat_pow(m, 1), value
    two_by_two = [e for e in torsion_entries() if e.matrix.order == 2]
    assert two_by_two, "no order-2 torsion entries in corpus"
    for e in two_by_two:
        assert mat_pow(e.matrix, 722) == mat_pow(e.matrix, 2), e.name
    assert factorial(6) + 2 == 722
    return f"1x1 set M^3=M; {len(two_by_two)} order-2 matrices M^722=M^2"


@criterion(7, "matrix power reduction")
def test_criterion_7_mpp_reduction():
    hits = []
    for e in torsion_entries():
        inst = build_mpp_instance(e.matrix)
        n = search_matrix_power(inst.a, inst.b, 4 * e.period + 4)
        assert n is not None, e.name
        assert n >= 2, e.name
        hits.append(n)
    for e in non_torsion_entries():
        inst = build_mpp_instance(e.matrix)
        assert search_matrix_power(inst.a, inst.b, 50) is None, e.name
    return (
        f"{len(hits)} torsion instances solved within 4*period+4, "
        f"{len(non_torsion_entries())} non-torsion instances empty to 50"
    )


@criterion(8, "desk-scale runtime")
def test_criterion_8_runtime():
    rng = Random(160816)
    parser = cli.build_parser()

    def decide(payload, *flags):
        args = parser.parse_args(["decide", *flags, payload])
        return json.loads(cli.run(args))

    def random_payload(d):
        return json.dumps(
            [[rng.randrange(-(2**15), 2**15) for _ in range(d)] for _ in range(d)]
        )

    big_times = []
    for _ in range(3):
        payload = random_payload(8)
        start = time.perf_counter()
        doc = decide(payload)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"8x8 decide took {elapsed:.2f}s, budget 5s"
        big_times.append(elapsed)
        assert doc["torsion"] in (True, False)

    payload = random_payload(4)
    start = time.perf_counter()
    faithful_doc = decide(payload, "--faithful")
    faithful_elapsed = time.perf_counter() - start
    assert faithful_elapsed < 120.0, f"4x4 faithful took {faithful_elapsed:.1f}s"
    assert decide(payload)["torsion"] == faithful_doc["torsion"]
    return (
        f"8x8 certificate route max {max(big_times):.2f}s < 5s; "
        f"4x4 faithful {faithful_elapsed:.2f}s < 120s"
    )


@criterion(9, "max-period table")
def test_criterion_9_max_period_table():
    for d in range(1, 9):
        period, witness = max_torsion_period(d)
        assert period == oracle_max_period(d), d
        assert sum(totient(j) for j in witness) <= d, d
        assert (lcm(*witness) if witness else 1) == period, d
    for d, expected in ((1, 2), (2, 6), (4, 12)):
        period, witness = max_torsion_period(d)
        assert period == expected, d
        realized = block_diag(
            *(companion_matrix(cyclotomic(j).to_rational()) for j in sorted(witness))
        )
        assert oracle_cycle_detect(realized, period + 2) == (1, period + 1), d
    return "d=1..8 vs exhaustive oracle; witnesses 2, 6, 12 measured by cycle detection"
