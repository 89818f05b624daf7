import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import backpenta
import backpenta.cli as cli
from backpenta.cli import (format_system, main, parse_system_text,
                           read_system)
from backpenta.oracle import GeneratorConfig, Singular, generate
from backpenta.ratfunc import PoleAtZero
from backpenta.solver import solve
from backpenta.systems import new_system

EX31_FILE = """\
# size-5 backward pentadiagonal system
5
3 2 3
-1 -2 1 4
1 2 2 -2 -1
4 1 2 1
1 2 1
10 26 20 14 4
"""

EX32_FILE = """\
5
3 2 3
-1 -2 1 4
1 2 2 -2 0
4 1 2 1
1 2 1
10 26 20 14 5
"""

APP2_FILE = """\
6
3 -1 7 -2
2 5 2 3 -5
1 3 3 5 6 0
2 1 2 2 1
-5 -7 3 -10
6 9 8 1 6 -9
"""

# beta_5 replaced and still identically zero; the dense matrix is singular
_IDENTICALLY_SINGULAR = generate(GeneratorConfig(
    seed=1, n=5, entry_range=1, force_zero_pivots=("d_n",),
    known_solution=False))


@pytest.fixture
def ex31_path(tmp_path):
    p = tmp_path / "ex31.txt"
    p.write_text(EX31_FILE)
    return str(p)


@pytest.fixture
def ex32_path(tmp_path):
    p = tmp_path / "ex32.txt"
    p.write_text(EX32_FILE)
    return str(p)


@pytest.fixture
def app2_path(tmp_path):
    p = tmp_path / "app2.txt"
    p.write_text(APP2_FILE)
    return str(p)


class TestParsing:
    def test_comments_ignored_and_values_exact(self):
        s = parse_system_text(EX31_FILE)
        assert s.n == 5
        assert s.d == (1, 2, 2, -2, -1)

    def test_rational_and_decimal_entries(self):
        text = EX31_FILE.replace("3 2 3", "1/3 0.5 -2/7")
        s = parse_system_text(text)
        assert s.a_tilde == (Fraction(1, 3), Fraction(1, 2), Fraction(-2, 7))

    def test_wrong_line_count(self):
        with pytest.raises(ValueError):
            parse_system_text("5\n1 2 3\n")

    def test_n_mismatch(self):
        with pytest.raises(ValueError):
            parse_system_text(EX31_FILE.replace("5\n3 2 3", "6\n3 2 3"))

    def test_round_trip_preserves_values(self):
        s = parse_system_text(EX31_FILE.replace("3 2 3", "1/3 0.5 -2/7"))
        assert parse_system_text(format_system(s)) == s

    def test_integer_lines_hold_ints(self):
        s = parse_system_text(EX31_FILE.replace("3 2 3", "1/3 0.5 -2"))
        assert all(type(v) is Fraction for v in s.a_tilde)
        assert all(type(v) is int
                   for vec in (s.a, s.d, s.b, s.b_tilde, s.y) for v in vec)

    def test_four_digit_exponent_still_parses(self):
        s = parse_system_text(EX31_FILE.replace("1 2 2 -2 -1",
                                                "1 2 2 -2 1e9999"))
        assert s.d[-1] == 10 ** 9999

    def test_read_missing_file(self):
        with pytest.raises(ValueError):
            read_system("/nonexistent/system.txt")

    def test_utf8_byte_order_mark_ignored(self, tmp_path):
        p = tmp_path / "bom.txt"
        p.write_bytes(b"\xef\xbb\xbf" + EX31_FILE.encode())
        assert read_system(str(p)) == parse_system_text(EX31_FILE)

    def test_non_utf8_byte_is_parse_error(self, tmp_path, capsys):
        p = tmp_path / "latin1.txt"
        p.write_bytes(EX31_FILE.replace("size", "taill\xe9").encode("latin-1"))
        with pytest.raises(cli.ParseError, match="^cannot read "):
            read_system(str(p))
        assert main(["solve", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {p}: ")
        assert captured.out == ""


def _k_over_1(text):
    """text with every integer entry written as k/1, which the parser
    reads through the Fraction grammar instead of int."""
    out, seen_n = [], False
    for line in text.splitlines():
        if line.strip() and not line.startswith("#"):
            if seen_n:
                line = " ".join(tok + "/1" if re.fullmatch(r"[+-]?[0-9]+", tok)
                                else tok for tok in line.split())
            seen_n = True
        out.append(line)
    return "\n".join(out) + "\n"


# integer-only lines with signs, -0 and leading zeros, and mixed lines
_MIXED_FILE = (EX31_FILE.replace("3 2 3", "+3 2 007")
               .replace("4 1 2 1", "4 -0 2 +1")
               .replace("1 2 1", "1/3 0.5 1"))


class TestIntegerLinesMatchFractionGrammar:
    """Integer-only lines are read with int; rewriting every integer as
    k/1 sends them through Fraction instead and must change nothing."""

    @pytest.fixture(params=[
        "ex31", "ex32", "app2", "mixed", "1e9999",
        *(f"gen {seed}{zero}" for seed in (1, 2, 3) for zero in ("", " d_n"))])
    def text(self, request, tmp_path):
        name = request.param
        if name.startswith("gen"):
            _, seed, *zero = name.split()
            out = tmp_path / "gen.txt"
            assert main(["gen", "--seed", seed, "--n", "30", "--out", str(out),
                         *(arg for pos in zero for arg in ("--zero", pos))]) == 0
            return out.read_text()
        return {"ex31": EX31_FILE, "ex32": EX32_FILE, "app2": APP2_FILE,
                "mixed": _MIXED_FILE,
                "1e9999": EX31_FILE.replace("1 2 2 -2 -1", "1 2 2 -2 1e9999"),
                }[name]

    def test_parsed_systems_are_equal(self, text):
        assert _k_over_1(text) != text
        assert parse_system_text(_k_over_1(text)) == parse_system_text(text)

    @pytest.mark.parametrize("mode", ["float", "exact", "symbolic"])
    def test_solve_output_is_identical(self, text, mode, tmp_path, capsys):
        results = []
        for name, body in (("int.txt", text), ("frac.txt", _k_over_1(text))):
            p = tmp_path / name
            p.write_text(body)
            code = main(["solve", str(p), "--mode", mode, "--det",
                         "--dump-factors"])
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        assert results[0] == results[1]


class TestSolveCommand:
    def test_exact_with_det(self, ex31_path, capsys):
        code = main(["solve", ex31_path, "--mode", "exact", "--det"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out == ["1", "2", "3", "4", "5", "det(A1) = 160"]

    def test_zero_pivot_exit_code(self, ex32_path, capsys):
        code = main(["solve", ex32_path, "--mode", "exact"])
        captured = capsys.readouterr()
        assert code == 2
        assert "zero pivot beta[1]" in captured.err
        assert captured.out == ""

    def test_symbolic_rescue(self, ex32_path, capsys):
        code = main(["solve", ex32_path, "--mode", "symbolic", "--det"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out == ["1", "2", "3", "4", "5", "det(A1) = 88"]

    def test_float_mode(self, ex31_path, capsys):
        code = main(["solve", ex31_path, "--mode", "float"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert [float(v) for v in out] == pytest.approx([1, 2, 3, 4, 5])

    def test_dump_factors(self, ex31_path, capsys):
        code = main(["solve", ex31_path, "--dump-factors"])
        out = capsys.readouterr().out
        assert code == 0
        assert "beta  = -1 2 -7 24/7 10/3" in out
        assert "gamma = -4 2 8/7 -2/3" in out
        assert "alpha = 1 6 -3 20/7" in out
        assert "z     = 4 30 -28 28 50/3" in out

    def test_dump_factors_symbolic(self, ex32_path, capsys):
        code = main(["solve", ex32_path, "--mode", "symbolic",
                     "--dump-factors"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out == [
            "alpha = 1 (2*x - 4)/(x) (2*x - 1)/(x + 2) (12*x - 8)/(3*x - 4)",
            "beta  = x (-2*x - 4)/(x) (3*x - 4)/(x + 2) "
            "(12*x - 12)/(3*x - 4) (9*x - 11)/(3*x - 3)",
            "gamma = 4/(x) (-x + 3)/(2*x + 4) -8/(3*x - 4) "
            "(-9*x + 7)/(12*x - 12)",
            "z     = 5 (14*x - 20)/(x) (27*x - 6)/(x + 2) "
            "(120*x - 88)/(3*x - 4) (39*x - 55)/(3*x - 3)",
            "1", "2", "3", "4", "5"]

    def test_dump_factors_float(self, ex31_path, capsys):
        code = main(["solve", ex31_path, "--mode", "float", "--dump-factors"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out == [
            "alpha = 1.0 6.0 -3.0 2.857142857142857",
            "beta  = -1.0 2.0 -7.0 3.4285714285714284 3.333333333333333",
            "gamma = -4.0 2.0 1.1428571428571428 -0.6666666666666666",
            "z     = 4.0 30.0 -28.0 28.0 16.666666666666664",
            "1.0", "2.0", "3.0", "4.0", "5.0"]

    @pytest.mark.parametrize("d, y, want", [
        # x needs all 17 significant digits of repr
        ("1 2 2 -2 -1", "1 0 0 0 0", [
            "alpha = 1.0 6.0 -3.0 2.857142857142857",
            "beta  = -1.0 2.0 -7.0 3.4285714285714284 3.333333333333333",
            "gamma = -4.0 2.0 1.1428571428571428 -0.6666666666666666",
            "z     = 0.0 0.0 0.0 0.0 1.0",
            "-0.05000000000000007", "-0.20000000000000012",
            "0.15000000000000005", "-0.25000000000000006",
            "0.30000000000000004", "det(A1) = 160.0"]),
        # the product of the pivots overflows
        ("1e200 1e200 1e200 1e200 1e200", "1 2 3 4 5", [
            "alpha = 1.0 2.0 1.0 4.0",
            "beta  = 1e+200 1e+200 1e+200 1e+200 1e+200",
            "gamma = 4e-200 1e-200 -2e-200 -1e-200",
            "z     = 5.0 4.0 3.0 2.0 1.0",
            "5e-200", "4e-200", "3e-200", "2e-200", "1e-200",
            "det(A1) = inf"]),
    ])
    def test_float_values_print_as_repr(self, tmp_path, capsys, d, y, want):
        p = tmp_path / "sys.txt"
        p.write_text(EX31_FILE.replace("1 2 2 -2 -1", d)
                     .replace("10 26 20 14 4", y))
        code = main(["solve", str(p), "--mode", "float", "--det",
                     "--dump-factors"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out == want
        report = solve(read_system(str(p)), mode="float")
        assert out[4:9] == [repr(v) for v in report.x]

    @pytest.mark.parametrize("old, new, first_err", [
        ("5\n3 2 3", "5.5\n3 2 3", "error: first data line must be n"),
        ("3 2 3", "3 2 q", "error: invalid scalar literal"),
        (EX31_FILE, "4\n3 2\n-1 -2 1\n1 2 2 -2\n4 1 2\n1 2\n1 2 3 4\n",
         "error: system size must be >= 5"),
        ("3 2 3", "3 2 3 3", "error: vector a_tilde: expected length "),
        # literals whose parse depends on the Python version or is slow
        ("5\n3 2 3", "\u0665\n3 2 3", "error: first data line must be n"),
        ("5\n3 2 3", "+5\n3 2 3", "error: first data line must be n"),
        ("5\n3 2 3", "5_0\n3 2 3", "error: first data line must be n"),
        ("10 26 20 14 4", "1_0 26 20 14 4", "error: data line 7: "),
        ("3 2 3", "3 2 \u0663", "error: data line 2: "),
        ("1 2 2 -2 -1", "1 2 2 -2 4e-10000000", "error: data line 4: "),
        ("1 2 2 -2 -1", "1 2 2 -2 1E+00001", "error: data line 4: "),
    ])
    def test_bad_file_exit_paths(self, tmp_path, capsys, old, new, first_err):
        p = tmp_path / "bad.txt"
        p.write_text(EX31_FILE.replace(old, new), encoding="utf-8")
        assert main(["solve", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines()[0].startswith(first_err)
        assert captured.out == ""

    def test_identically_singular_exit_code(self, tmp_path, capsys):
        p = tmp_path / "singular.txt"
        p.write_text(format_system(_IDENTICALLY_SINGULAR))
        assert main(["solve", str(p), "--mode", "symbolic"]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines()[0].startswith(
            "singular: beta[5] is identically zero; ")
        assert captured.out == ""

    def test_parse_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("not a system\n")
        assert main(["solve", str(p)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert main(["solve", "f.txt", "--mode", "quantum"]) == 1

    @pytest.mark.parametrize("mode", ["exact", "symbolic"])
    def test_tol_outside_float_mode_is_usage_error(self, ex31_path, mode,
                                                   capsys):
        assert main(["solve", ex31_path, "--mode", mode, "--tol", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ")
        assert captured.out == ""

    def test_byte_deterministic(self, ex31_path, capsys):
        main(["solve", ex31_path, "--det"])
        first = capsys.readouterr().out
        main(["solve", ex31_path, "--det"])
        assert capsys.readouterr().out == first

    def test_float_overflowing_literal(self, tmp_path, capsys):
        p = tmp_path / "huge.txt"
        p.write_text(EX31_FILE.replace("1 2 2 -2 -1", "1 2 2 -2 1e400"))
        assert main(["solve", str(p), "--mode", "float"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_python_dash_m(self, ex31_path):
        src = os.path.dirname(os.path.dirname(backpenta.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "backpenta", "solve", ex31_path, "--det"],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0
        assert done.stdout.splitlines() == ["1", "2", "3", "4", "5",
                                            "det(A1) = 160"]

    @pytest.mark.parametrize("n", [5, 400])  # fails at exit flush / in print
    def test_closed_stdout_pipe(self, tmp_path, n):
        path = tmp_path / "sys.txt"
        path.write_text(format_system(generate(
            GeneratorConfig(seed=1, n=n, force_zero_pivots=("d_n",)))))
        src = os.path.dirname(os.path.dirname(backpenta.__file__))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "backpenta", "solve", str(path),
                 "--mode", "symbolic"], stdout=write_end,
                stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
                timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")


def _full_str(value):
    # str() of a value of any length, with the caller's digit limit back
    # afterwards (Python 3.10.0-3.10.6 has no limit and no setter)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


class TestLongValues:
    """Exact values of more than 4300 digits print in full; parsing keeps
    Python's 4300-digit bound on each literal."""

    @pytest.fixture
    def big_path(self, tmp_path):
        p = tmp_path / "big.txt"
        p.write_text(EX31_FILE.replace("1 2 2 -2 -1", "1 2 2 -2 1e9999"))
        return str(p)

    @pytest.mark.parametrize("mode", ["exact", "symbolic"])
    def test_solve_prints_every_digit(self, big_path, mode, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        assert main(["solve", big_path, "--mode", mode, "--det"]) == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
        report = solve(read_system(big_path))
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            *map(_full_str, report.x), f"det(A1) = {_full_str(report.det)}"]
        assert len(_full_str(report.det)) > 10000
        assert captured.err == ""

    @pytest.mark.parametrize("argv", [["solve", "--dump-factors"], ["check"]])
    def test_dump_factors_and_check(self, big_path, argv, capsys):
        assert main([argv[0], big_path, *argv[1:]]) == 0
        captured = capsys.readouterr()
        assert max(map(len, captured.out.splitlines())) > 10000
        assert captured.err == ""

    def test_long_identically_singular_rhs(self, tmp_path, capsys):
        text = format_system(_IDENTICALLY_SINGULAR).splitlines()
        text[-1] = " ".join(["1e5000", *text[-1].split()[1:]])
        p = tmp_path / "singular.txt"
        p.write_text("\n".join(text) + "\n")
        assert main(["solve", str(p), "--mode", "symbolic"]) == 3
        assert capsys.readouterr().err == (
            "singular: beta[5] is identically zero; no finite solution\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no integer-string limit")
    def test_literal_beyond_the_digit_limit(self, tmp_path, capsys):
        p = tmp_path / "long.txt"
        for digits in (4301, 4401):  # one past the limit, and far past it
            p.write_text(EX31_FILE.replace("1 2 2 -2 -1",
                                           "1 2 2 -2 " + "7" * digits))
            assert main(["solve", str(p)]) == 1
            assert capsys.readouterr().err.startswith(
                "error: invalid scalar literal: '777")

    @pytest.mark.parametrize("entry, message", [
        ("9" * 400, "int too large to convert to float"),
        ("9" * 400 + "/1", "integer division result too large for a float"),
    ], ids=["int", "fraction"])
    def test_integer_beyond_the_float_range(self, tmp_path, capsys, entry,
                                            message):
        p = tmp_path / "wide.txt"
        p.write_text(EX31_FILE.replace("1 2 2 -2 -1", "1 2 2 -2 " + entry))
        assert main(["solve", str(p), "--mode", "float"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_python_without_the_digit_limit(self, ex31_path, monkeypatch,
                                            capsys):
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
        assert main(["solve", ex31_path, "--det"]) == 0
        assert capsys.readouterr().out.endswith("det(A1) = 160\n")


class TestCheckCommand:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "missing.txt")]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read ")

    def test_identically_singular_system(self, tmp_path, capsys):
        p = tmp_path / "singular.txt"
        p.write_text(format_system(_IDENTICALLY_SINGULAR))
        assert main(["check", str(p)]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines()[0] == (
            "SINGULAR: both the banded and the dense path report no "
            "unique solution")
        assert captured.out == ""

    def test_match(self, ex31_path, capsys):
        assert main(["check", ex31_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("MATCH")
        assert "mode: exact" in out

    def test_symbolic_fallback(self, app2_path, capsys):
        assert main(["check", app2_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("MATCH")
        assert "mode: symbolic" in out

    def test_singular_system(self, tmp_path, capsys):
        # rows 1 and 2 both (0,0,1,1,1) with equal rhs: no unique solution
        text = "5\n1 0 0\n1 1 0 0\n1 1 1 1 0\n1 1 1 1\n1 1 1\n1 1 1 1 1\n"
        p = tmp_path / "singular.txt"
        p.write_text(text)
        assert main(["check", str(p)]) == 3

    def test_consistent_singular_system(self, tmp_path, capsys):
        # the symbolic fallback finds an exact solution with det(A1) = 0;
        # the dense oracle reports Singular
        system = generate(GeneratorConfig(seed=29, n=6,
                                          force_zero_pivots=("d_n",)))
        p = tmp_path / "consistent.txt"
        p.write_text(format_system(system))
        assert main(["check", str(p)]) == 3
        out = capsys.readouterr().out
        assert out.startswith("SINGULAR: no unique solution")
        assert "MISMATCH" not in out
        assert "mode: symbolic" in out


    def test_plain_mismatch_exit_code(self, ex31_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "dense_solve",
                            lambda matrix, rhs: (1, 2, 3, 4, 6))
        assert main(["check", ex31_path]) == 4
        out = capsys.readouterr().out.splitlines()
        assert out == ["MISMATCH", "banded: 1 2 3 4 5", "oracle: 1 2 3 4 6"]

    def test_oracle_singular_only(self, ex31_path, capsys, monkeypatch):
        def singular(matrix, rhs):
            raise Singular("forced")
        monkeypatch.setattr(cli, "dense_solve", singular)
        assert main(["check", ex31_path]) == 3
        out = capsys.readouterr().out.splitlines()
        assert out == ["MISMATCH", "banded: 1 2 3 4 5", "oracle: singular"]

    def test_banded_singular_only(self, app2_path, capsys, monkeypatch):
        def pole(system):
            raise PoleAtZero("forced")
        monkeypatch.setattr(cli, "solve_symbolic", pole)
        assert main(["check", app2_path]) == 3
        out = capsys.readouterr().out.splitlines()
        assert out == ["MISMATCH", "banded: singular", "oracle: 1 1 1 1 1 1"]


class TestGenCommand:
    def test_deterministic_output(self, tmp_path, capsys):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        assert main(["gen", "--seed", "1", "--n", "8", "--out", str(out1)]) == 0
        assert main(["gen", "--seed", "1", "--n", "8", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_band(self, tmp_path):
        out = tmp_path / "z.txt"
        main(["gen", "--seed", "4", "--n", "7", "--zero", "d_n",
              "--out", str(out)])
        system = read_system(str(out))
        assert system.d[-1] == 0

    def test_generated_file_passes_check(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        main(["gen", "--seed", "12", "--n", "9", "--out", str(out)])
        assert main(["check", str(out)]) == 0

    def test_gen_usage_error(self, capsys):
        assert main(["gen", "--seed", "1", "--n", "3"]) == 1

    def test_malformed_zero_position(self, capsys):
        assert main(["gen", "--seed", "1", "--n", "6", "--zero", "d_x"]) == 1
        assert capsys.readouterr().err == "error: bad band position 'd_x'\n"

    def test_unwritable_out_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.txt"
        assert main(["gen", "--seed", "1", "--n", "6", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n")
