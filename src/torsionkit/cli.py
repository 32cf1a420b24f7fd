"""Command-line front end.

Matrix-taking subcommands read JSON (array of rows, entries integers or
"p/q" or decimal strings, never exponent notation) or plain text (one row
per line, whitespace-separated entries); number-theory subcommands take
plain integers. Every output is a single JSON document on stdout,
deterministic byte for byte. Exit status is 0 when a verdict was produced
(whatever the verdict), 2 on bad input, 3 on an internal consistency fault,
and 141 when stdout is closed before the output is written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from fractions import Fraction

from .errors import InternalConsistencyError, MatrixParseError
from .matrices import RatMatrix
from .mpp import build_mpp_instance
from .numbertheory import (
    MAX_PERIOD_SEARCH_LIMIT,
    cyclotomic,
    lcm_upto,
    max_torsion_period,
    nu_poly,
    pi_poly_product,
    torsion_bound,
    totient,
)
from .polynomials import read_rational
from .torsion import (
    TorsionCertificate,
    decide_torsion_annihilation,
    oracle_cycle_detect,
    torsion_certificate,
    verify_certificate,
)


def _parse_entry(token, row: int, col: int) -> int | Fraction:
    # row and col are 1-based in every message. A JSON integer is taken as
    # it is, without building the message; bool is no int here.
    if type(token) is int:
        return token
    try:
        return read_rational(token, f"entry at ({row},{col})")
    except ValueError as err:
        raise MatrixParseError(str(err)) from None


def _grid_to_matrix(grid: list[list[int | Fraction]]) -> RatMatrix:
    if not grid:
        raise MatrixParseError("matrix has no rows")
    width = len(grid[0])
    for i, row in enumerate(grid[1:], start=2):
        if len(row) != width:
            raise MatrixParseError(f"ragged row {i}")
    if width != len(grid):
        raise MatrixParseError(
            f"matrix is {len(grid)} rows by {width} columns, must be square"
        )
    return RatMatrix(grid)


def parse_matrix(text: str | bytes, format: str = "json") -> RatMatrix:
    """Parse a matrix in the declared format, pinpointing any defect.

    >>> parse_matrix('[["1/2","0"],["0","1"]]')[0, 0]
    Fraction(1, 2)
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if format == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise MatrixParseError(f"not valid JSON: {err}") from None
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise MatrixParseError("JSON matrix must be an array of row arrays")
        rows = [
            [_parse_entry(tok, i, j) for j, tok in enumerate(row, start=1)]
            for i, row in enumerate(data, start=1)
        ]
    elif format == "text":
        rows = [
            [_parse_entry(tok, i, j) for j, tok in enumerate(line.split(), start=1)]
            for i, line in enumerate(text.splitlines(), start=1)
            if line.strip()
        ]
    else:
        raise MatrixParseError(f"unknown matrix format: {format!r}")
    return _grid_to_matrix(rows)


def emit_matrix(m: RatMatrix, format: str = "json") -> str:
    """Inverse of parse_matrix, entry for entry."""
    if format == "json":
        return json.dumps(m.to_data())
    if format == "text":
        return "\n".join(" ".join(str(e) for e in row) for row in m.rows)
    raise ValueError(f"unknown matrix format: {format!r}")


def _read_matrix_arg(source: str, format: str) -> RatMatrix:
    # An existing file wins; "-" is stdin; anything else is inline payload.
    # A payload that cannot be a path (too long for one, or holding a NUL)
    # fails the stat like a missing file, as it does in os.path.exists.
    if source == "-":
        return parse_matrix(sys.stdin.read(), format)
    try:
        mode = os.stat(source).st_mode
    except (OSError, ValueError):
        return parse_matrix(source, format)
    if stat.S_ISDIR(mode):
        raise MatrixParseError(f"matrix input is a directory: {source}")
    with open(source, "r", encoding="utf-8") as handle:
        return parse_matrix(handle.read(), format)


#: Largest argument each number-theory subcommand accepts, and the largest
#: powers --cap. The work grows fast with the argument (a totient table of
#: 2*D*D entries for bound, trial division up to sqrt(N) for totient, about
#: N^2 coefficients for pi and nu, one matrix product and one digest per
#: exponent for --cap), so each is refused above a limit. At its limit each
#: number-theory subcommand takes under a second. The cap bounds only the
#: exponent: the cost of powers also grows with the order and the entry
#: size of the matrix, and an order-8 matrix with 2-digit entries takes
#: seconds at the cap.
#: maxperiod has no entry: max_torsion_period refuses
#: D > MAX_PERIOD_SEARCH_LIMIT itself before any work, with exit 2 like any
#: other bad input.
ARGUMENT_LIMITS = {
    "pi": 100,
    "cyclotomic": 3000,
    "nu": 80,
    "totient": 10**14,
    "ell": 30000,
    "bound": 500,
    "cap": 5000,
}


def _bounded(name: str, limit: int | None):
    """argparse type: a positive integer, at most limit unless it is None."""

    def convert(value: str) -> int:
        n = int(value)
        if n < 1:
            raise argparse.ArgumentTypeError(f"{name} must be positive, got {n}")
        if limit is not None and n > limit:
            raise argparse.ArgumentTypeError(f"{name} must be at most {limit}, got {n}")
        return n

    return convert


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The torsionkit argument parser, built once and shared by every call.

    Building it costs about as much as a small decision, so it is cached;
    callers may parse with it but must not add to it.
    """
    parser = argparse.ArgumentParser(
        prog="torsionkit",
        description=(
            "Decide whether two distinct powers of a rational square matrix "
            "coincide, with checkable certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def matrix_command(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "matrix",
            help="matrix input: a file path, '-' for stdin, or the payload itself",
        )
        cmd.add_argument(
            "--format",
            choices=("json", "text"),
            default="json",
            help="matrix input format (default json)",
        )
        return cmd

    decide = matrix_command("decide", "torsion verdict for a matrix")
    decide.add_argument(
        "--faithful",
        action="store_true",
        help="use the full annihilation test at n = 2*d*d instead of the certificate",
    )
    matrix_command("certificate", "torsion certificate for a matrix")
    verify = matrix_command("verify", "check a certificate against a matrix")
    verify.add_argument(
        "--certificate",
        required=True,
        help="path to the certificate JSON document ('-' for stdin)",
    )
    matrix_command("reduce-mpp", "emit the block pair (A, B) with A^n = B iff torsion")
    powers = matrix_command("powers", "brute-force search for a repeated power")
    powers.add_argument(
        "--cap",
        type=_bounded("cap", ARGUMENT_LIMITS["cap"]),
        default=100,
        help=f"largest exponent examined (default 100, at most {ARGUMENT_LIMITS['cap']})",
    )

    for name, help_text, metavar in (
        ("pi", "coefficients of pi_n, the product of the first n cyclotomics", "N"),
        ("cyclotomic", "coefficients of the n-th cyclotomic polynomial", "N"),
        ("nu", "coefficients of nu_n = (z-1)(z^2-1)...(z^n-1)", "N"),
        ("totient", "Euler totient of n", "N"),
        ("ell", "lcm(1..n)", "N"),
        ("bound", "largest m whose totient is at most d", "D"),
        ("maxperiod", "largest eventual period of a torsion matrix of order d", "D"),
    ):
        limit = ARGUMENT_LIMITS.get(name)
        shown = MAX_PERIOD_SEARCH_LIMIT if limit is None else limit
        cmd = sub.add_parser(name, help=f"{help_text} ({metavar} <= {shown})")
        cmd.add_argument(
            "n",
            type=_bounded(metavar.lower(), limit),
            metavar=metavar,
            help=f"a positive integer, at most {shown}",
        )

    return parser


def _dumps(doc) -> str:
    """doc as JSON text; a value with a ``to_data()`` is written as its data.

    CPython refuses to convert an int of more than 4300 decimal digits to
    text (``sys.get_int_max_str_digits``). That limit guards the parsing of
    untrusted input, and input keeps it; a result the library computed is
    written whatever its size, so the limit is lifted only while this runs.
    """

    def write() -> str:
        return json.dumps(doc, default=lambda value: value.to_data())

    if not hasattr(sys, "get_int_max_str_digits"):  # before 3.10.7: no limit
        return write()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return write()
    finally:
        sys.set_int_max_str_digits(limit)


def run(args: argparse.Namespace) -> str:
    """Dispatch one parsed request and return its output document."""
    command = args.command
    if command == "decide":
        m = _read_matrix_arg(args.matrix, args.format)
        if args.faithful:
            doc = {"torsion": decide_torsion_annihilation(m, faithful=True)}
        else:
            cert = torsion_certificate(m)
            doc = {"torsion": cert.torsion}
            if cert.torsion:
                doc["preperiod"] = cert.preperiod
                doc["period"] = cert.period
        return _dumps(doc)
    if command == "certificate":
        m = _read_matrix_arg(args.matrix, args.format)
        return _dumps(torsion_certificate(m))
    if command == "verify":
        m = _read_matrix_arg(args.matrix, args.format)
        if args.certificate == "-":
            raw = sys.stdin.read()
        else:
            with open(args.certificate, "r", encoding="utf-8") as handle:
                raw = handle.read()
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as err:
            raise ValueError(f"certificate is not valid JSON: {err}") from None
        cert = TorsionCertificate.from_data(doc)
        if not cert.torsion:
            raise ValueError("certificate does not claim torsion, nothing to verify")
        outcome = verify_certificate(m, cert)
        return _dumps({"valid": outcome.ok, "reason": outcome.reason})
    if command == "reduce-mpp":
        m = _read_matrix_arg(args.matrix, args.format)
        inst = build_mpp_instance(m)
        return _dumps({"d": inst.source_order, "a": inst.a, "b": inst.b})
    if command == "powers":
        m = _read_matrix_arg(args.matrix, args.format)
        hit = oracle_cycle_detect(m, args.cap)
        return _dumps({"cap": args.cap, "repeat": list(hit) if hit else None})
    if command == "pi":
        return _dumps(pi_poly_product(args.n))
    if command == "cyclotomic":
        return _dumps(cyclotomic(args.n))
    if command == "nu":
        return _dumps(nu_poly(args.n))
    if command == "totient":
        return _dumps(totient(args.n))
    if command == "ell":
        return _dumps(lcm_upto(args.n))
    if command == "bound":
        return _dumps(torsion_bound(args.n))
    if command == "maxperiod":
        period, witness = max_torsion_period(args.n)
        return _dumps({"period": period, "witness": sorted(witness)})
    raise InternalConsistencyError(f"unhandled subcommand: {command}")


#: Exit status when stdout is closed before the output is written: the
#: status a shell reports for a process that SIGPIPE ended (128 + 13).
EXIT_BROKEN_PIPE = 141


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        document = run(args)
    except InternalConsistencyError as fault:
        print(f"internal fault: {fault}", file=sys.stderr)
        return 3
    except (MatrixParseError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        print(document)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (as after `| head`). Point stdout at devnull so
        # that the flush at interpreter exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return 0


if __name__ == "__main__":
    sys.exit(main())
