"""The four workloads: seeded inputs, how each request runs, and the checks.

A workload is one round of requests, fixed by the seed. The runner repeats
whole rounds, so every run attempts the same operations in the same
proportions. CLI requests go through ``torsionkit.cli.main`` in this
process with the argv a shell user would type; the library-only routes are
called directly. Every call is looked up on its module at request time, so
the tracer's wrappers see it.

Each checker compares outputs against the construction of the input or
against the benchmark's own computations in :mod:`exact`, never against a
stored copy of earlier output.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random

import exact


@dataclass(frozen=True)
class Request:
    """One operation of a round.

    ``route`` is ``cli`` (argv through ``torsionkit.cli.main``), ``tight``
    (``decide_torsion_annihilation`` at the tight bound) or ``pi_gcd``
    (``pi_poly_gcd``). ``save_to`` stands for a shell redirect of stdout.
    ``tamper`` is ``(source, dest, key, change)``: before the request, the
    certificate in ``source`` is copied to ``dest`` with ``change``
    applied to its field ``key``. ``expect`` holds what the checker needs
    to know about the input.
    """

    route: str
    argv: tuple[str, ...] = ()
    matrix: object = None
    n: int = 0
    save_to: str | None = None
    tamper: tuple | None = None
    expect: dict = field(default_factory=dict)


def execute(tk, req: Request):
    """Run one request; the result is what its checker reads."""
    if req.route == "cli":
        if req.tamper is not None:
            source, dest, key, change = req.tamper
            doc = json.loads(Path(source).read_text(encoding="utf-8"))
            doc[key] = change(doc[key])
            _write_new(dest, json.dumps(doc) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = tk.cli.main(list(req.argv))
            except SystemExit as stop:
                code = stop.code
        if req.save_to is not None:
            _write_new(req.save_to, out.getvalue())
        return code, out.getvalue()
    if req.route == "tight":
        return tk.torsion.decide_torsion_annihilation(req.matrix)
    if req.route == "pi_gcd":
        return tuple(tk.numbertheory.pi_poly_gcd(req.n).to_data())
    raise ValueError(f"unknown route {req.route!r}")


def _write_new(path: str, text: str) -> None:
    # Unlink first: rewriting a file in place by truncation makes ext4 flush
    # it on close, which added ~45 ms of disk wait to each request.
    Path(path).unlink(missing_ok=True)
    Path(path).write_text(text, encoding="utf-8")


def _matrix_arg(rows: exact.Rows) -> str:
    return json.dumps(exact.to_json_rows(rows))


def _random_index_set(rng: Random, budget: int) -> tuple[int, ...]:
    """Distinct cyclotomic indices whose totients add up to budget exactly."""
    pool = [j for j in range(1, 2 * budget * budget + 3) if exact.brute_totient(j) <= budget]
    while True:
        chosen, left = [], budget
        options = list(pool)
        while left:
            fits = [j for j in options if exact.brute_totient(j) <= left]
            if not fits:
                break
            j = rng.choice(fits)
            chosen.append(j)
            options.remove(j)
            left -= exact.brute_totient(j)
        if not left:
            return tuple(sorted(chosen))


def _block_matrix(k: int, indices: tuple[int, ...]) -> exact.Rows:
    """blockdiag(shift of size k, companions of gamma_j): mu = z^k prod gamma_j."""
    blocks = []
    if k:
        blocks.append(exact.companion([0] * k + [1]))
    blocks.extend(exact.companion(exact.cyclotomic_coeffs(j)) for j in indices)
    return exact.block_diag(blocks)


def _random_partition(rng: Random, d: int) -> tuple[int, ...]:
    parts, left = [], d
    while left:
        part = rng.randint(1, left)
        parts.append(part)
        left -= part
    return tuple(sorted(parts, reverse=True))


def _nonunit_det(rng: Random, make) -> exact.Rows:
    """Draw from make until |det| is neither 0 nor 1, which rules out torsion.

    A torsion matrix has every eigenvalue 0 or a root of unity, so its
    determinant is 0 or of absolute value 1.
    """
    while True:
        m = make()
        if abs(exact.determinant(m)) not in (0, 1):
            return m


# --------------------------------------------------------------- dense_random

#: (order, entries are p/q) per matrix. Orders 4..16 once with integer
#: entries, plus four of the thirteen orders again with p/q entries. Fixing
#: the shapes keeps the cost of a round nearly the same for every seed.
DENSE_SHAPES = [(d, False) for d in range(4, 17)] + [(d, True) for d in (5, 8, 11, 14)]
DENSE_BOUND = 2 ** 15
DENSE_DENOMINATORS = (2, 16)


def dense_random(seed: int, tk, workdir: Path) -> list[Request]:
    rng = Random(f"dense_random/{seed}")
    requests = []
    for d, rational in DENSE_SHAPES:
        def make():
            return [
                [
                    Fraction(rng.randint(-DENSE_BOUND, DENSE_BOUND), rng.randint(*DENSE_DENOMINATORS))
                    if rational else Fraction(rng.randint(-DENSE_BOUND, DENSE_BOUND))
                    for _ in range(d)
                ]
                for _ in range(d)
            ]

        m = _nonunit_det(rng, make)
        arg = _matrix_arg(m)
        expect = {"rows": m}
        requests.append(Request("cli", ("decide", arg), expect=expect))
        requests.append(Request("cli", ("certificate", arg), expect=expect))
    return requests


def check_dense_random(requests: list[Request], outputs: list) -> list[str]:
    import sympy

    problems = []
    z = sympy.Symbol("z")
    for req, (code, text) in zip(requests, outputs):
        m = req.expect["rows"]
        d = len(m)
        where = f"{req.argv[0]} order {d}"
        if code != 0:
            problems.append(f"{where}: exit {code}")
            continue
        doc = json.loads(text)
        if req.argv[0] == "decide":
            if doc != {"torsion": False}:
                problems.append(f"{where}: |det| is not 0 or 1, so not torsion; got {doc}")
            continue
        if doc.get("torsion") is not False or "J" in doc or "period" in doc:
            problems.append(f"{where}: certificate claims torsion or a period: {doc}")
            continue
        if doc.get("d") != d or doc.get("k") != 0 or doc.get("preperiod") != 0:
            problems.append(f"{where}: invertible matrix needs d={d}, k=0, preperiod=0; got {doc}")
        mu = [Fraction(c) for c in doc["mu"]]
        if not mu or mu[-1] != 1 or len(mu) - 1 > d:
            problems.append(f"{where}: mu must be monic of degree <= {d}")
            continue
        if any(any(row) for row in exact.poly_at_matrix(mu, m)):
            problems.append(f"{where}: mu(M) != 0")
        chi = sympy.Matrix(m).charpoly(z).as_expr()
        if sympy.degree(sympy.gcd(chi, sympy.diff(chi, z)), z) == 0:
            chi_coeffs = [Fraction(str(c)) for c in reversed(sympy.Poly(chi, z).all_coeffs())]
            if chi_coeffs != mu:
                problems.append(f"{where}: squarefree characteristic polynomial differs from mu")
    return problems


# ------------------------------------------------------------ torsion_certify

#: (order, kind, shape) per matrix, orders 8..24: "block" is a
#: block-companion matrix with shape (k, J), conjugated by a shear and a
#: random permutation; "perm" a random permutation matrix with the given
#: cycle type. The shapes are fixed and the seed picks the permutations and
#: the tampering, so a request costs about the same for every seed. A
#: seeded J moved the latency percentiles by a fifth between seeds, and a
#: seeded unimodular conjugator moved the order-20 certificate by a tenth.
CERTIFY_SHAPES = [
    (8, "perm", (5, 3)), (8, "block", (1, (2, 7))), (8, "block", (0, (15,))),
    (9, "block", (0, (1, 3, 9))),
    (9, "perm", (4, 3, 2)), (10, "block", (0, (11,))), (10, "perm", (5, 3, 2)),
    (11, "block", (1, (3, 5, 8))), (12, "block", (0, (13,))), (12, "perm", (7, 3, 2)),
    (13, "block", (1, (4, 5, 7))), (14, "perm", (6, 5, 3)),
    (15, "block", (1, (3, 7, 9))), (16, "block", (0, (5, 7, 9))),
    (18, "perm", (7, 5, 4, 2)), (20, "block", (2, (5, 8, 11))),
    (22, "perm", (9, 7, 4, 2)), (24, "block", (0, (5, 7, 9, 16))),
]
#: With these counts a round has 46 requests, which puts the 90th
#: percentile inside the cluster of order-20 and order-22 certificates
#: rather than on the edge between two request types of unequal cost.
PERIOD_TAMPERS = 4
INDEX_TAMPERS = 3

#: verify requests on hand-written certificates for [[-1,0],[0,1]] (k = 0,
#: J = {1, 2}, period 2) that a strict reader must refuse with exit 2.
#: torsionkit's TorsionCertificate.from_data accepts all three and reports
#: {"valid": true}: bool("false") is true, int(2.9) is 2, and the string
#: "12" is read as the index set {1, 2}. They are counted as failed
#: operations, never as wrong outputs, and do not depend on the seed.
MALFORMED_MATRIX = [[-1, 0], [0, 1]]
_GENUINE = {"torsion": True, "d": 2, "k": 0, "J": [1, 2], "preperiod": 0, "period": 2, "mu": [-1, 0, 1]}
MALFORMED = {
    "torsion_string": {**_GENUINE, "torsion": "false"},
    "fractional_d": {**_GENUINE, "d": 2.9},
    "string_J": {**_GENUINE, "J": "12"},
}


def _swap_index(j: int, taken: tuple[int, ...]) -> int | None:
    """Some index outside the set with the same totient as j."""
    phi = exact.brute_totient(j)
    for other in range(1, 2 * phi * phi + 3):
        if other not in taken and exact.brute_totient(other) == phi:
            return other
    return None


def torsion_certify(seed: int, tk, workdir: Path) -> list[Request]:
    rng = Random(f"torsion_certify/{seed}")
    made = []
    for d, kind, shape in CERTIFY_SHAPES:
        if kind == "block":
            k, indices = shape
            m = exact.relabel(rng, exact.conjugate(_block_matrix(k, indices), *exact.shear_pair(d)))
        else:
            k = 0
            cycles = shape
            indices = tuple(sorted(exact.cycle_divisors(cycles)))
            m = exact.permutation(rng, cycles)
        made.append((m, k, indices))

    swappable = [i for i, (_, _, J) in enumerate(made) if any(_swap_index(j, J) for j in J)]
    tampered = rng.sample(range(len(made)), PERIOD_TAMPERS)
    swapped = rng.sample([i for i in swappable if i not in tampered], INDEX_TAMPERS)

    requests = []
    for i, (m, k, indices) in enumerate(made):
        arg = _matrix_arg(m)
        cert = str(workdir / f"cert-{i}.json")
        expect = {"d": len(m), "k": k, "J": list(indices),
                  "period": math.lcm(*indices) if indices else 1}
        requests.append(Request("cli", ("certificate", arg), save_to=cert, expect=expect))
        requests.append(Request("cli", ("verify", arg, "--certificate", cert),
                                expect={"valid": True, "reason": None}))
        if i in tampered:
            delta = rng.choice((-1, 1)) if expect["period"] > 1 else 1
            bad = str(workdir / f"cert-{i}-period.json")
            requests.append(Request(
                "cli", ("verify", arg, "--certificate", bad),
                tamper=(cert, bad, "period", lambda p, delta=delta: p + delta),
                expect={"valid": False, "reason": "period mismatch"},
            ))
        if i in swapped:
            j = rng.choice([j for j in indices if _swap_index(j, indices)])
            other = _swap_index(j, indices)
            bad = str(workdir / f"cert-{i}-index.json")
            requests.append(Request(
                "cli", ("verify", arg, "--certificate", bad),
                tamper=(cert, bad, "J", lambda J, j=j, other=other: sorted(other if x == j else x for x in J)),
                expect={"valid": False, "reason": "mu mismatch"},
            ))

    arg = json.dumps(MALFORMED_MATRIX)
    for label, doc in MALFORMED.items():
        path = workdir / f"malformed-{label}.json"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        requests.append(Request("cli", ("verify", arg, "--certificate", str(path)),
                                expect={"malformed": label}))
    return requests


def check_torsion_certify(requests: list[Request], outputs: list) -> list[str]:
    problems = []
    for req, (code, text) in zip(requests, outputs):
        if "malformed" in req.expect:
            continue
        where = f"{req.argv[0]} order {len(json.loads(req.argv[1]))}"
        if code != 0:
            problems.append(f"{where}: exit {code}")
            continue
        doc = json.loads(text)
        if req.argv[0] == "verify":
            if doc != req.expect:
                problems.append(f"{where}: expected {req.expect}, got {doc}")
            continue
        e = req.expect
        got = (doc.get("torsion"), doc.get("d"), doc.get("k"), doc.get("J"), doc.get("preperiod"), doc.get("period"))
        want = (True, e["d"], e["k"], e["J"], e["k"], e["period"])
        if got != want:
            problems.append(f"{where}: (torsion, d, k, J, preperiod, period) {got}, constructed {want}")
    return problems


def failed_torsion_certify(req: Request, output) -> bool:
    """A malformed certificate fails unless it is refused with exit 2."""
    return "malformed" in req.expect and output[0] != 2


# --------------------------------------------------------------- small_corpus

#: Matrices per (order, kind). Order 6 is present because it is where the
#: faithful annihilator reaches degree 1594; it is kept rare because each
#: such request costs about 0.7 s.
CORPUS_MIX = {
    1: {"block": 4, "scalar": 12, "random": 4},
    2: {"block": 14, "perm": 8, "conj_block": 14, "unipotent": 10, "scalar": 8, "random": 10, "conj_random": 6},
    3: {"block": 16, "perm": 10, "conj_block": 16, "unipotent": 10, "scalar": 8, "random": 12, "conj_random": 8},
    4: {"block": 8, "perm": 6, "conj_block": 8, "unipotent": 6, "scalar": 4, "random": 6, "conj_random": 2},
    5: {"block": 1, "perm": 1, "conj_block": 2, "unipotent": 1, "random": 1},
    6: {"block": 1, "perm": 1},
}
SCALARS = (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(3, 2), Fraction(-2, 3))


def _torsion_fact(k: int, indices) -> dict:
    return {"torsion": True, "preperiod": k, "period": math.lcm(*indices) if indices else 1}


def _rational_conjugator(rng: Random, d: int, fancy: bool) -> tuple[exact.Rows, exact.Rows]:
    s, s_inv = exact.unimodular_pair(rng, d, 2 * d)
    if fancy:
        scale = [Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 5))) for _ in range(d)]
        diag = [[scale[i] if i == j else Fraction(0) for j in range(d)] for i in range(d)]
        inv = [[1 / scale[i] if i == j else Fraction(0) for j in range(d)] for i in range(d)]
        s, s_inv = exact.matmul(diag, s), exact.matmul(s_inv, inv)
    return s, s_inv


def _corpus_matrix(rng: Random, d: int, kind: str, n: int) -> tuple[exact.Rows, dict]:
    if kind in ("block", "conj_block"):
        k = rng.randint(0, d)
        indices = _random_index_set(rng, d - k)
        m = _block_matrix(k, indices)
        if kind == "conj_block":
            m = exact.conjugate(m, *_rational_conjugator(rng, d, fancy=n % 2 == 0))
        return m, _torsion_fact(k, indices)
    if kind == "perm":
        cycles = _random_partition(rng, d)
        return exact.permutation(rng, cycles), _torsion_fact(0, exact.cycle_divisors(cycles))
    if kind == "scalar":
        c = Fraction(rng.choice(SCALARS))
        m = [[c if i == j else Fraction(0) for j in range(d)] for i in range(d)]
        if c == 0:
            return m, _torsion_fact(1, ())
        if abs(c) == 1:
            return m, _torsion_fact(0, (1,) if c == 1 else (2,))
        return m, {"torsion": False}
    if kind == "unipotent":
        # sign * (I + N) with N strictly upper triangular and a nonzero
        # superdiagonal: one Jordan block for 1 or -1, never torsion.
        sign = rng.choice((1, -1))
        m = [
            [Fraction(sign) if i == j
             else Fraction(sign * rng.choice((-3, -1, 1, 2, Fraction(1, 2)))) if j == i + 1
             else Fraction(sign * rng.randint(-2, 2)) if j > i
             else Fraction(0)
             for j in range(d)]
            for i in range(d)
        ]
        if n % 2:
            m = exact.conjugate(m, *exact.unimodular_pair(rng, d, 2 * d))
        return m, {"torsion": False}
    if kind in ("random", "conj_random"):
        m = _nonunit_det(rng, lambda: [[Fraction(rng.randint(-4, 4)) for _ in range(d)] for _ in range(d)])
        if kind == "conj_random":
            m = exact.conjugate(m, *_rational_conjugator(rng, d, fancy=n % 2 == 0))
        return m, {"torsion": False}
    raise ValueError(kind)


def small_corpus(seed: int, tk, workdir: Path) -> list[Request]:
    rng = Random(f"small_corpus/{seed}")
    requests = []
    for d, kinds in CORPUS_MIX.items():
        for kind, count in kinds.items():
            for n in range(count):
                m, fact = _corpus_matrix(rng, d, kind, n)
                arg = _matrix_arg(m)
                requests.append(Request("cli", ("decide", arg), expect=fact))
                requests.append(Request("cli", ("decide", "--faithful", arg), expect=fact))
                requests.append(Request("tight", matrix=tk.matrices.RatMatrix(m), expect=fact))
    return requests


def check_small_corpus(requests: list[Request], outputs: list) -> list[str]:
    problems = []
    for req, out in zip(requests, outputs):
        fact = req.expect
        if req.route == "tight":
            if out is not fact["torsion"]:
                problems.append(f"tight annihilation order {req.matrix.order}: {out}, constructed {fact}")
            continue
        code, text = out
        where = " ".join(req.argv[:-1]) + f" order {len(json.loads(req.argv[-1]))}"
        want = fact if req.argv[1] != "--faithful" else {"torsion": fact["torsion"]}
        if code != 0 or json.loads(text) != want:
            problems.append(f"{where}: exit {code}, {text.strip()}, constructed {want}")
    return problems


# ------------------------------------------------------------------ pi_routes

PI_MAX = 34


def pi_routes(seed: int, tk, workdir: Path) -> list[Request]:
    """`torsionkit pi N` for every N <= PI_MAX, then pi_poly_gcd(N) for each.

    The set of N is fixed, since the gcd route grows steeply with N; the
    seed sets the order within each group. The groups are kept apart
    because a CLI request right after a large gcd ran ~0.3 ms slower, which
    made the median latency depend on the order.
    """
    rng = Random(f"pi_routes/{seed}")
    by_product = [Request("cli", ("pi", str(n)), n=n) for n in range(1, PI_MAX + 1)]
    by_gcd = [Request("pi_gcd", n=n) for n in range(1, PI_MAX + 1)]
    rng.shuffle(by_product)
    rng.shuffle(by_gcd)
    return by_product + by_gcd


def check_pi_routes(requests: list[Request], outputs: list) -> list[str]:
    problems = []
    by_route: dict[tuple[str, int], tuple] = {}
    for req, out in zip(requests, outputs):
        if req.route == "cli":
            code, text = out
            if code != 0:
                problems.append(f"pi {req.n}: exit {code}")
                continue
            out = tuple(json.loads(text))
        by_route[req.route, req.n] = out
    for n in range(1, PI_MAX + 1):
        product, gcd = by_route.get(("cli", n)), by_route.get(("pi_gcd", n))
        if product is None or gcd is None:
            continue
        degree = sum(exact.brute_totient(j) for j in range(1, n + 1))
        if product != gcd:
            problems.append(f"pi_{n}: the product and gcd routes differ")
        for label, coeffs in (("product", product), ("gcd", gcd)):
            if not coeffs or coeffs[-1] != 1:
                problems.append(f"pi_{n} by the {label} route is not monic")
            elif len(coeffs) - 1 != degree:
                problems.append(f"pi_{n} by the {label} route has degree {len(coeffs) - 1}, expected {degree}")
    return problems


def _never_failed(req: Request, output) -> bool:
    return False


@dataclass(frozen=True)
class Workload:
    name: str
    build: object
    check: object
    failed: object = _never_failed


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense_random", dense_random, check_dense_random),
        Workload("torsion_certify", torsion_certify, check_torsion_certify, failed_torsion_certify),
        Workload("small_corpus", small_corpus, check_small_corpus),
        Workload("pi_routes", pi_routes, check_pi_routes),
    )
}


def annihilation_degree(d: int, faithful: bool) -> int:
    """deg of z^d * pi_n with n = 2*d*d (faithful) or the tight bound."""
    n = 2 * d * d if faithful else exact.tight_bound(d)
    return d + sum(exact.brute_totient(j) for j in range(1, n + 1))
