"""Command-line surface: parsing, documents, exit codes, round trips."""

import errno
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionkit import cli
from torsionkit.errors import InternalConsistencyError, MatrixParseError
from torsionkit.matrices import RatMatrix
from torsionkit.numbertheory import lcm_upto
from torsionkit.torsion import TorsionCertificate, torsion_certificate

from _corpus import get_corpus


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseMatrix:
    def test_json_fraction_entries(self):
        m = cli.parse_matrix('[["1/2","0"],["0","1"]]')
        assert m[0, 0] == Fraction(1, 2) and m[1, 1] == 1

    def test_json_plain_integers(self):
        assert cli.parse_matrix("[[1,2],[3,4]]") == RatMatrix([[1, 2], [3, 4]])

    def test_json_integers_stay_integers(self):
        m = cli.parse_matrix("[[1,-2],[0,30]]")
        assert m.den == 1 and m.num == ((1, -2), (0, 30))
        assert m == cli.parse_matrix('[["1","-2"],["0","30"]]')
        assert m == cli.parse_matrix('[["2/2","-2.0"],["0/7","60/2"]]')

    def test_ragged_row(self):
        with pytest.raises(MatrixParseError, match="ragged row 2"):
            cli.parse_matrix("[[1,2],[3]]")

    def test_zero_denominator_located(self):
        with pytest.raises(MatrixParseError, match=r"zero denominator in entry at \(1,1\)"):
            cli.parse_matrix('[["1/0"]]')

    def test_malformed_token_located(self):
        with pytest.raises(MatrixParseError, match=r"malformed entry at \(2,1\)"):
            cli.parse_matrix('[[1,2],["x",4]]')

    def test_float_rejected(self):
        with pytest.raises(MatrixParseError, match="non-exact"):
            cli.parse_matrix("[[0.5]]")

    @pytest.mark.parametrize("token", ["1e400", "1E2", "-2.5e-3"])
    def test_exponent_notation_refused(self, token):
        with pytest.raises(MatrixParseError, match=r"exponent notation .* entry at \(1,2\)"):
            cli.parse_matrix(f'[[1, "{token}"], [0, 1]]')
        with pytest.raises(MatrixParseError, match=r"exponent notation .* entry at \(1,2\)"):
            cli.parse_matrix(f"1 {token}\n0 1\n", format="text")

    def test_decimal_entries_accepted(self):
        assert cli.parse_matrix('[["0.5"]]') == RatMatrix([[Fraction(1, 2)]])

    def test_non_square(self):
        with pytest.raises(MatrixParseError, match="must be square"):
            cli.parse_matrix("[[1,2,3],[4,5,6]]")

    def test_empty(self):
        with pytest.raises(MatrixParseError, match="no rows"):
            cli.parse_matrix("[]")

    def test_not_nested_lists(self):
        with pytest.raises(MatrixParseError, match="array of row arrays"):
            cli.parse_matrix("[1,2]")

    def test_text_format(self):
        m = cli.parse_matrix("0 -1\n1 0\n", format="text")
        assert m == RatMatrix([[0, -1], [1, 0]])

    def test_text_fractions_and_blank_lines(self):
        m = cli.parse_matrix("1/2 0\n\n0 1\n", format="text")
        assert m[0, 0] == Fraction(1, 2)

    def test_text_ragged(self):
        with pytest.raises(MatrixParseError, match="ragged row 2"):
            cli.parse_matrix("1 2\n3\n", format="text")

    def test_bytes_accepted(self):
        assert cli.parse_matrix(b"[[1]]") == RatMatrix([[1]])

    def test_unknown_format(self):
        with pytest.raises(MatrixParseError, match="unknown matrix format"):
            cli.parse_matrix("[[1]]", format="csv")


class TestRoundTrip:
    def test_corpus_round_trips_in_both_formats(self):
        rng = Random(2)
        for e in rng.sample(list(get_corpus()), 25):
            for fmt in ("json", "text"):
                text = cli.emit_matrix(e.matrix, fmt)
                assert cli.parse_matrix(text, fmt) == e.matrix, (e.name, fmt)


class TestCommands:
    def test_decide_rotation(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "[[0,-1],[1,0]]")
        assert code == 0
        assert out == '{"torsion": true, "preperiod": 0, "period": 4}\n'

    def test_decide_non_torsion_has_no_period_fields(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "[[2]]")
        assert code == 0
        assert json.loads(out) == {"torsion": False}

    def test_decide_faithful(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "--faithful", "[[0,-1],[1,0]]")
        assert code == 0
        assert json.loads(out) == {"torsion": True}

    def test_decide_text_format_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 -1\n1 0\n"))
        code, out, _ = run_cli(capsys, "decide", "-", "--format", "text")
        assert code == 0
        assert json.loads(out)["torsion"] is True

    def test_decide_from_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[1,1],[0,1]]")
        code, out, _ = run_cli(capsys, "decide", str(path))
        assert code == 0
        assert json.loads(out) == {"torsion": False}

    def test_certificate_and_verify_round_trip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "certificate", "[[0,-1],[1,1]]")
        assert code == 0
        doc = json.loads(out)
        assert doc["torsion"] is True and doc["J"] == [6] and doc["period"] == 6
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(out)
        code, out, _ = run_cli(
            capsys, "verify", "[[0,-1],[1,1]]", "--certificate", str(cert_path)
        )
        assert code == 0
        assert json.loads(out) == {"valid": True, "reason": None}

    def test_verify_catches_tampering(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "certificate", "[[0,-1],[1,1]]")
        doc = json.loads(out)
        doc["period"] = 12
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys, "verify", "[[0,-1],[1,1]]", "--certificate", str(cert_path)
        )
        assert code == 0
        assert json.loads(out) == {"valid": False, "reason": "period mismatch"}

    def test_verify_non_torsion_certificate_is_input_error(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "certificate", "[[2]]")
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(out)
        code, _, err = run_cli(capsys, "verify", "[[2]]", "--certificate", str(cert_path))
        assert code == 2
        assert "does not claim torsion" in err

    def test_powers(self, capsys):
        code, out, _ = run_cli(capsys, "powers", "[[0,-1],[1,0]]", "--cap", "10")
        assert code == 0
        assert json.loads(out) == {"cap": 10, "repeat": [1, 5]}
        code, out, _ = run_cli(capsys, "powers", "[[2]]", "--cap", "10")
        assert json.loads(out) == {"cap": 10, "repeat": None}

    def test_reduce_mpp_emits_block_pair(self, capsys):
        code, out, _ = run_cli(capsys, "reduce-mpp", "[[0,-1],[1,0]]")
        assert code == 0
        doc = json.loads(out)
        assert doc["d"] == 2
        a = RatMatrix.from_data(doc["a"])
        b = RatMatrix.from_data(doc["b"])
        assert a.order == b.order == 4
        assert a.rows[2][3] == 1 and b.rows[2][3] == 0

    def test_scalar_outputs(self, capsys):
        assert run_cli(capsys, "totient", "9") == (0, "6\n", "")
        assert run_cli(capsys, "ell", "4") == (0, "12\n", "")
        assert run_cli(capsys, "bound", "4") == (0, "12\n", "")

    def test_polynomial_outputs(self, capsys):
        assert run_cli(capsys, "cyclotomic", "6") == (0, "[1, -1, 1]\n", "")
        assert run_cli(capsys, "pi", "3") == (0, "[-1, -1, 0, 1, 1]\n", "")
        assert run_cli(capsys, "nu", "2") == (0, "[1, -1, -1, 1]\n", "")

    def test_maxperiod(self, capsys):
        code, out, _ = run_cli(capsys, "maxperiod", "4")
        assert code == 0
        assert json.loads(out) == {"period": 12, "witness": [12]}

    def test_deterministic_output(self, capsys):
        first = run_cli(capsys, "certificate", "[[0,-1],[1,1]]")
        second = run_cli(capsys, "certificate", "[[0,-1],[1,1]]")
        assert first == second


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, out, err = run_cli(capsys, "decide", "[[1,2],[3]]")
        assert code == 2 and out == ""
        assert "ragged row 2" in err and "Traceback" not in err

    def test_guard_violation_is_2(self, capsys):
        code, _, err = run_cli(capsys, "maxperiod", "30")
        assert code == 2 and "24" in err

    def test_nonpositive_argument_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["totient", "0"])
        assert exc.value.code == 2

    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["totient", "9", "--fast"])
        assert exc.value.code == 2

    def test_internal_fault_is_3(self, capsys, monkeypatch):
        def broken(n):
            raise InternalConsistencyError("simulated corruption")

        monkeypatch.setattr(cli, "totient", broken)
        code, out, err = run_cli(capsys, "totient", "9")
        assert code == 3 and "internal fault" in err

    def test_directory_as_matrix_is_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "decide", str(tmp_path))
        assert code == 2
        assert err == f"error: matrix input is a directory: {tmp_path}\n"

    @pytest.mark.parametrize(
        "payload, message",
        [("[[true]]", "non-exact entry at (1,1): True"), ("[[1.0]]", "non-exact entry at (1,1): 1.0")],
    )
    def test_bool_and_float_entries_are_2(self, capsys, payload, message):
        code, out, err = run_cli(capsys, "decide", payload)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_payload_too_long_for_a_path_is_read_inline(self, capsys):
        # The 10-cycle permutation matrix, 320 bytes: stat fails with
        # ENAMETOOLONG, which means "not a file", as os.path.exists has it.
        payload = json.dumps([[int(i == (j + 1) % 10) for j in range(10)] for i in range(10)])
        with pytest.raises(OSError) as exc:
            os.stat(payload)
        assert exc.value.errno == errno.ENAMETOOLONG
        code, out, err = run_cli(capsys, "decide", payload)
        assert (code, out, err) == (0, '{"torsion": true, "preperiod": 0, "period": 10}\n', "")

    def test_payload_with_nul_is_read_inline(self, capsys):
        with pytest.raises(ValueError):
            os.stat("[[1]]\x00")
        code, out, err = run_cli(capsys, "decide", "[[1]]\x00")
        assert (code, out) == (2, "")
        assert err == "error: not valid JSON: Extra data: line 1 column 6 (char 5)\n"

    @pytest.mark.parametrize("argv", [["decide", "[[0,-1],[1,0]]"], ["pi", "100"]])
    def test_closed_pipe_exits_141_without_traceback(self, argv):
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "torsionkit.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (cli.EXIT_BROKEN_PIPE, b"")

    @pytest.mark.parametrize(
        "field, value", [("torsion", "false"), ("d", 2.9), ("J", "12"), ("J", [1, 2, 2])]
    )
    def test_malformed_certificate_is_2(self, capsys, tmp_path, field, value):
        # Each of these once read as a valid certificate for diag(-1, 1).
        doc = {"torsion": True, "d": 2, "k": 0, "J": [1, 2], "preperiod": 0,
               "period": 2, "mu": [-1, 0, 1]}
        doc[field] = value
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "verify", "[[-1,0],[0,1]]", "--certificate", str(cert_path)
        )
        assert code == 2 and out == ""
        assert field in err and "Traceback" not in err


class TestExponentNotation:
    """A 17-byte entry like "1e999999999" must be refused before it is expanded."""

    def test_json_matrix_is_2(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "decide", '[["1e999999999"]]')
        assert (code, out) == (2, "")
        assert "exponent notation" in err and time.perf_counter() - start < 1.0

    def test_text_matrix_is_2(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1E999999999\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "decide", "--format", "text", str(path))
        assert (code, out) == (2, "")
        assert "exponent notation" in err and time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("token", ["1e400", "1E2", "-2.5e-3", "1e999999999"])
    def test_certificate_mu_coefficient_is_2(self, capsys, tmp_path, token):
        doc = {"torsion": True, "d": 2, "k": 0, "J": [1, 2], "preperiod": 0,
               "period": 2, "mu": [token, 0, 1]}
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "verify", "[[-1,0],[0,1]]", "--certificate", str(cert_path)
        )
        assert (code, out) == (2, "")
        assert "exponent notation" in err and time.perf_counter() - start < 1.0


class TestArgumentLimits:
    @pytest.mark.parametrize("name", ["pi", "cyclotomic", "nu", "totient", "ell", "bound"])
    def test_limit_is_served_and_one_past_is_refused(self, capsys, monkeypatch, name):
        limit = cli.ARGUMENT_LIMITS[name]
        calls = []
        library = {"pi": "pi_poly_product", "cyclotomic": "cyclotomic",
                   "nu": "nu_poly", "totient": "totient", "ell": "lcm_upto",
                   "bound": "torsion_bound"}[name]
        monkeypatch.setattr(cli, library, lambda n: calls.append(n) or 1)
        assert run_cli(capsys, name, str(limit)) == (0, "1\n", "")
        with pytest.raises(SystemExit) as exc:
            cli.main([name, str(limit + 1)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"at most {limit}" in err and "Traceback" not in err
        assert calls == [limit]

    def test_cap_limit(self, capsys, monkeypatch):
        limit = cli.ARGUMENT_LIMITS["cap"]
        calls = []
        monkeypatch.setattr(cli, "oracle_cycle_detect", lambda m, cap: calls.append(cap))
        code, out, _ = run_cli(capsys, "powers", "[[2]]", "--cap", str(limit))
        assert code == 0 and json.loads(out) == {"cap": limit, "repeat": None}
        with pytest.raises(SystemExit) as exc:
            cli.main(["powers", "[[2]]", "--cap", str(limit + 1)])
        assert exc.value.code == 2
        assert f"at most {limit}" in capsys.readouterr().err
        assert calls == [limit]

    def test_limits_listed_in_help(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        out = " ".join(capsys.readouterr().out.split())
        for name in ("pi", "cyclotomic", "nu", "totient", "ell", "bound"):
            assert f"<= {cli.ARGUMENT_LIMITS[name]})" in out
        assert f"(D <= {cli.MAX_PERIOD_SEARCH_LIMIT})" in out


class TestLongIntegers:
    # mu of this matrix has coefficients of about 4500 decimal digits, past
    # CPython's 4300-digit limit on converting integers to text.
    ZEROS = "0" * 1500
    PAYLOAD = f"[[1{ZEROS}, 1, 0], [0, 3{ZEROS}, 1], [1, 0, 5{ZEROS}]]"

    def test_certificate_past_the_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "certificate", self.PAYLOAD)
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit
        cert = torsion_certificate(cli.parse_matrix(self.PAYLOAD))
        assert max(abs(c) for c in cert.mu.coeffs) > 10 ** limit
        sys.set_int_max_str_digits(0)
        try:
            assert json.loads(out) == cert.to_data()
        finally:
            sys.set_int_max_str_digits(limit)

    def test_output_past_the_digit_limit(self, capsys):
        code, out, _ = run_cli(capsys, "ell", "10000")
        assert code == 0 and len(out.strip()) > sys.get_int_max_str_digits()
        assert int(out[:50]) == lcm_upto(10000) // 10 ** (len(out.strip()) - 50)

    def test_input_keeps_the_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "decide", f"[[1{'0' * limit}]]")
        assert code == 2 and out == ""
        assert str(limit) in err
        assert sys.get_int_max_str_digits() == limit

    def test_powers_past_the_digit_limit(self, capsys):
        # 10^5000 has 5001 digits; no power is ever written out as text.
        code, out, err = run_cli(capsys, "powers", "[[10]]", "--cap", "5000")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"cap": 5000, "repeat": None}


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
entry_values = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.sampled_from(
        ["1/2", "-3/4", "1/0", "0x1", "1.5", " 2 ", "", "1/2/3", "+7", "1e400", "1E2", "-2.5e-3"]
    ),
    json_scalars,
)
#: Up to three rows of up to three entries: some pass the shape checks and
#: reach the entry parser.
matrix_like = st.lists(st.lists(entry_values, max_size=3), max_size=3)


@st.composite
def certificate_like(draw):
    """Well-typed certificate documents with at most one field replaced by
    an arbitrary JSON value and at most one field dropped."""
    count = st.integers(min_value=-1, max_value=6)
    doc = draw(st.fixed_dictionaries({
        "torsion": st.booleans(),
        "d": count,
        "k": count,
        "J": st.lists(st.integers(min_value=-1, max_value=30), max_size=4)
        | st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=3).map(
            lambda js: js + js[:1]
        ),
        "preperiod": count,
        "period": count,
        "mu": st.lists(entry_values, max_size=4),
    }))
    fields = st.sampled_from(sorted(doc)) | st.none()
    corrupt, dropped = draw(fields), draw(fields)
    if corrupt is not None:
        doc[corrupt] = draw(json_values)
    doc.pop(dropped, None)
    return doc


class TestUntrustedInputFuzz:
    """Matrix payloads and certificate documents either parse or fail cleanly.

    Only MatrixParseError or ValueError may come out: anything else would
    escape ``main`` as an internal fault (exit 3) instead of bad input (exit 2).
    """

    @given(
        st.one_of(
            st.text(max_size=40),
            st.binary(max_size=30),
            json_values.map(json.dumps),
            matrix_like.map(json.dumps),
        ),
        st.sampled_from(["json", "text"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_parse_matrix(self, payload, format):
        try:
            result = cli.parse_matrix(payload, format)
        except (MatrixParseError, ValueError):
            return
        assert isinstance(result, RatMatrix)
        if isinstance(payload, bytes):
            payload = payload.decode("utf-8")
        if format == "json":
            tokens = [t for row in json.loads(payload) for t in row]
        else:
            tokens = payload.split()
        assert not any(isinstance(t, str) and ("e" in t or "E" in t) for t in tokens)

    @given(st.one_of(certificate_like(), json_values))
    @settings(max_examples=200, deadline=None)
    def test_certificate_from_data(self, doc):
        try:
            result = TorsionCertificate.from_data(doc)
        except ValueError:
            return
        assert isinstance(result, TorsionCertificate)
        if result.torsion:
            assert len(result.J) == len(doc["J"])


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_shared_parser_keeps_requests_apart(self, capsys):
        _, out, _ = run_cli(capsys, "decide", "--faithful", "[[0,1],[-1,0]]")
        assert out == '{"torsion": true}\n'
        code, out, _ = run_cli(capsys, "decide", "[[0,1],[-1,0]]")
        assert code == 0
        assert json.loads(out) == {"torsion": True, "preperiod": 0, "period": 4}
