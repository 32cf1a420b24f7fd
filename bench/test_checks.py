"""Self-tests of the benchmark: every workload's checker can fail.

Each test runs a few real requests, confirms the checker accepts their
outputs, then corrupts one output and confirms the checker refuses it.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

tk = run.import_torsionkit()


def outputs_of(requests):
    return [workloads.execute(tk, req) for req in requests]


def replace_doc(output, **changes):
    code, text = output
    return code, json.dumps({**json.loads(text), **changes}) + "\n"


def test_dense_random_refuses_flipped_verdict_and_wrong_mu(tmp_path):
    requests = workloads.dense_random(0, tk, tmp_path)[:2]  # order 4: decide, certificate
    outputs = outputs_of(requests)
    assert workloads.check_dense_random(requests, outputs) == []

    flipped = [replace_doc(outputs[0], torsion=True, preperiod=0, period=1), outputs[1]]
    assert workloads.check_dense_random(requests, flipped)

    mu = json.loads(outputs[1][1])["mu"]
    mu[0] = int(mu[0]) + 1
    assert workloads.check_dense_random(requests, [outputs[0], replace_doc(outputs[1], mu=mu)])


def test_torsion_certify_refuses_wrong_period_and_accepted_tampering(tmp_path):
    requests = workloads.torsion_certify(0, tk, tmp_path)
    tampered = next(r for r in requests if r.tamper is not None)
    first = next(i for i, r in enumerate(requests) if r.save_to == tampered.tamper[0])
    # The certificate, its genuine verify, and one tampered verify.
    chosen = [requests[first], requests[first + 1], tampered]
    outputs = outputs_of(chosen)
    assert workloads.check_torsion_certify(chosen, outputs) == []

    period = json.loads(outputs[0][1])["period"]
    off_by_one = [replace_doc(outputs[0], period=period + 1)] + outputs[1:]
    assert workloads.check_torsion_certify(chosen, off_by_one)

    accepted = outputs[:2] + [(0, json.dumps({"valid": True, "reason": None}) + "\n")]
    assert workloads.check_torsion_certify(chosen, accepted)


def test_malformed_certificates_count_as_failed_not_wrong(tmp_path):
    requests = workloads.torsion_certify(0, tk, tmp_path)
    malformed = [r for r in requests if "malformed" in r.expect]
    assert len(malformed) == len(workloads.MALFORMED)
    outputs = outputs_of(malformed)
    assert workloads.check_torsion_certify(malformed, outputs) == []
    for req, out in zip(malformed, outputs):
        assert workloads.failed_torsion_certify(req, out) == (out[0] != 2)
        assert not workloads.failed_torsion_certify(req, (2, ""))


def test_small_corpus_refuses_flipped_verdict(tmp_path):
    requests = workloads.small_corpus(0, tk, tmp_path)[:30]  # order 1 only
    outputs = outputs_of(requests)
    assert workloads.check_small_corpus(requests, outputs) == []

    for i, req in enumerate(requests[:3]):
        wrong = list(outputs)
        if req.route == "tight":
            wrong[i] = not outputs[i]
        else:
            doc = json.loads(outputs[i][1])
            wrong[i] = replace_doc(outputs[i], torsion=not doc["torsion"])
        assert workloads.check_small_corpus(requests, wrong), req


def test_pi_routes_refuses_changed_coefficient(tmp_path):
    requests = [r for r in workloads.pi_routes(0, tk, tmp_path) if r.n <= 8]
    outputs = outputs_of(requests)
    assert workloads.check_pi_routes(requests, outputs) == []

    i = next(i for i, r in enumerate(requests) if r.route == "pi_gcd" and r.n == 8)
    coeffs = list(outputs[i])
    coeffs[1] += 1
    assert workloads.check_pi_routes(requests, outputs[:i] + [tuple(coeffs)] + outputs[i + 1:])


def test_tracer_counts_horner_work_and_restores_the_library():
    original = tk.matrices.mat_mul
    m = tk.matrices.RatMatrix([[0, -1], [1, 0]])
    with spans.Tracer() as tracer:
        assert tk.torsion.mat_mul is not original
        assert tk.torsion.decide_torsion_annihilation(m) is True
        assert tk.torsion.decide_torsion_annihilation(m, faithful=True) is True
    assert tk.matrices.mat_mul is original and tk.torsion.mat_mul is original
    assert spans.horner_identity(tracer.spans, workloads.annihilation_degree) == []

    metrics = spans.layer_metrics(tracer.spans)
    degrees = [workloads.annihilation_degree(2, f) for f in (False, True)]
    assert metrics["matrices.mat_mul.calls"][0] == sum(deg + 1 for deg in degrees)
    assert metrics["torsion.decide_torsion_annihilation.calls"][0] == 2
    # A wrong expected degree is caught.
    assert spans.horner_identity(tracer.spans, lambda d, faithful: 0)
