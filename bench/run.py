"""Benchmark for torsionkit: one seeded workload per invocation.

    python3 bench/run.py --workload small_corpus --seed 1 --seconds 20 --trace 0

One client in this process sends the workload's requests in a closed loop:
each starts when the previous one returns, with no threads. The untraced
run (``--trace 0``) prints the end-to-end metrics; the traced run
(``--trace 1``) sends the same requests once with every layer wrapped and
prints the per-layer metrics. Either way every output is checked, and the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md beside this file.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()
#: CPU time of interpreter start-up, which is nearly all of the wall time
#: before T0; /proc would give that wall time only to 10 ms.
STARTUP_S = time.process_time()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Every run sends at least this many requests, so that the 90th percentile
#: has ten samples beyond it.
MIN_REQUESTS = 100


def import_torsionkit():
    """Import torsionkit from this checkout's src/, and nothing else."""
    package = SRC / "torsionkit"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: torsionkit sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import torsionkit
    import torsionkit.cli  # noqa: F401  (the package does not import its CLI)

    if Path(torsionkit.__file__).resolve().parent != package:
        sys.exit(f"bench: imported torsionkit from {torsionkit.__file__}, not {package}")
    return torsionkit


def run_round(tk, requests, tracer=None):
    """One pass over the requests: (wall seconds, latencies, outputs)."""
    latencies, outputs = [], []
    clock = time.perf_counter
    start = clock()
    for rid, req in enumerate(requests):
        if tracer is not None:
            tracer.request = rid
        t = clock()
        outputs.append(workloads.execute(tk, req))
        latencies.append(clock() - t)
    return clock() - start, latencies, outputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tk = import_torsionkit()
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        requests = workload.build(args.seed, tk, workdir)
        # One untimed pass fills the library's caches before timing, so
        # every timed round is warm. In the traced run that pass is the
        # traced one, and the cache fills show in its layer counts.
        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            with tracer:
                warm = run_round(tk, requests, tracer)
        else:
            warm = run_round(tk, requests)
        setup_s = STARTUP_S + time.perf_counter() - T0

        rounds = []
        start = time.perf_counter()
        while (not rounds or time.perf_counter() - start < args.seconds
               or len(rounds) * len(requests) < MIN_REQUESTS):
            rounds.append(run_round(tk, requests))
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outputs = rounds[0][2]
    problems = [
        f"round {i} output differs from round 0" for i, r in enumerate(rounds) if r[2] != outputs
    ]
    if warm[2] != outputs:
        problems.append(("traced" if tracer else "warm-up") + " pass output differs from the timed rounds")
    problems += workload.check(requests, outputs)
    failed = sum(workload.failed(req, out) for r in rounds for req, out in zip(requests, r[2]))
    attempted = len(rounds) * len(requests)

    walls = [r[0] for r in rounds]
    wall_s = statistics.median(walls)
    if tracer is None:
        # Each request's latency is its median over the rounds, so that a
        # slow second on a shared machine moves one sample, not a percentile.
        latencies = [statistics.median(lat) for lat in zip(*(r[1] for r in rounds))]
        cuts = statistics.quantiles(latencies, n=10, method="inclusive")
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "latency_p50_ms": (cuts[4] * 1000, "ms"),
            "latency_p90_ms": (cuts[8] * 1000, "ms"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        problems += spans.horner_identity(tracer.spans, workloads.annihilation_degree)
        metrics = spans.layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = (warm[0] - wall_s, "s")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")

    env = {
        "python": platform.python_version(),
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
    }
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(rounds)} timed rounds of {len(requests)} requests, {failed} failed")
    print(f"python {env['python']}, gmpy2 importable: {'yes' if env['gmpy2_importable'] else 'no'}, "
          f"nproc {env['nproc']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"check failed: {problem}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "round_walls_s": walls,
              "round_latencies_s": [r[1] for r in rounds], "problems": problems}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
