"""Command-line front end: solve, check and gen on system files.

System file format: UTF-8 text (a leading byte-order mark is ignored);
'#'-prefixed comment lines are ignored; the remaining lines must be
exactly 7 data lines:

    line 1: n
    lines 2-6: the bands a~ (n-2 entries), a (n-1), d (n), b (n-1),
               b~ (n-2), whitespace-separated
    line 7: the right-hand side y (n entries)

n is written in ASCII digits. Entries are integers, exact decimals, or
p/q rationals, in ASCII, without '_' digit separators, and with exponents
of at most four digits (1e9999, not 1e10000). Each data line goes to the
first of three readers that takes it: the JSON decoder for a line of
plain integers (digits and '-', single spaces), int for any other line
of integers, and the Fraction grammar (ratfunc.from_literal) for the
rest. All three give equal values, so every mode prints the same output
whichever reads a line.

check runs solve_symbolic once; "mode: exact" means no pivot was replaced.
It also runs the dense Bareiss oracle on the n x n matrix, O(n^3) time and
O(n^2) memory: at n = 3000 it gave no result after 110 s of CPU.

Exit codes (main reports every failure): 0 success; 1 "usage error: ..."
(bad arguments, --tol outside float mode, NaN or below 0), "error: ..."
(unreadable or malformed file, a float-mode literal beyond the float range,
bad gen arguments, unwritable --out) or stdout closed by its reader
(`| head`; nothing on stderr); 2 zero pivot (float/exact); 3 "singular: ..."
or check's SINGULAR; 4 check: the banded and dense solutions differ. A
consistent singular system exits 0 from solve --mode symbolic, printing its
x -> 0 limit (det(A1) = 0 under --det), and 3 from check.

solve writes x (and the det line) in one write, once every value is
formatted. main lifts Python's process-wide integer-string digit limit
while it runs (_read), so two threads must not run it at once.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import __version__
from .oracle import GeneratorConfig, Singular, dense_solve, generate
from .ratfunc import PoleAtZero, from_literal
from .solver import ZeroPivot, solve, solve_symbolic
from .systems import (BackwardPentaSystem, LengthMismatch, SizeTooSmall,
                      band_product, densify, new_system)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ZERO_PIVOT = 2
EXIT_SINGULAR = 3
EXIT_MISMATCH = 4


class ParseError(ValueError):
    """A file, literal or gen argument that main reports as "error: ..."."""


class UsageError(Exception):
    """Bad command-line usage, reported as "usage error: ..."."""


_LONG_EXPONENT = re.compile(r"[eE][+-]?[0-9]{5}")
_PLAIN_INTEGER_BYTES = b"0123456789- "


def parse_system_text(text: str) -> BackwardPentaSystem:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if len(lines) != 7:
        raise ParseError(f"expected 7 data lines, found {len(lines)}")
    try:
        if not (lines[0].isascii() and lines[0].isdigit()):
            raise ValueError
        n = int(lines[0])
    except ValueError:
        raise ParseError(f"first data line must be n, got {lines[0]!r}") from None
    # Line by line, three readers, each for what the one before rejects.
    # A line must be ASCII with no '_' (int takes both non-ASCII digits
    # and '_', Fraction takes '_' from Python 3.11 on). A line of only
    # digits, '-' and spaces goes to the C JSON decoder, with each space
    # made a comma: it builds the ints without a str per token, takes only
    # tokens -?(0|[1-9][0-9]*), which int reads to the same value under
    # the same digit limit, and rejects the rest of such lines (leading
    # zeros, a lone '-', double spaces). Then int, then, on a line int
    # rejects, the scan for long exponents, which parse slowly (int reads
    # no exponent). Those lines go through Fraction only once every line
    # has passed its checks. The checks leave no token that int reads and
    # Fraction rejects, and a token over the digit limit fails all three
    # ways.
    vectors, fraction_lines = [], []
    for k, ln in enumerate(lines[1:], 2):
        if ln.isascii() and "_" not in ln:
            if not ln.encode().translate(None, _PLAIN_INTEGER_BYTES):
                try:
                    vectors.append(
                        json.loads("[" + ln.replace(" ", ",") + "]"))
                    continue
                except ValueError:
                    pass
            try:
                vectors.append(list(map(int, ln.split())))
                continue
            except ValueError:
                if not _LONG_EXPONENT.search(ln):
                    fraction_lines.append(len(vectors))
                    vectors.append(ln.split())
                    continue
        raise ParseError(f"data line {k}: entries must be ASCII, without "
                         "'_', with exponents of at most 4 digits")
    try:
        for i in fraction_lines:
            vectors[i] = list(map(from_literal, vectors[i]))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if len(vectors[2]) != n:
        raise ParseError(f"d line has {len(vectors[2])} entries but n={n}")
    return new_system(*vectors)


def read_system(path: str) -> BackwardPentaSystem:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_system_text(text)


def _read(path: str) -> BackwardPentaSystem:
    system = read_system(path)  # parsed under the caller's digit limit
    sys.set_int_max_str_digits(0)  # exact values print in full
    return system


def format_system(system: BackwardPentaSystem, header: str = "") -> str:
    out = [f"# {header}"] if header else []
    out.append(str(system.n))
    for vec in (system.a_tilde, system.a, system.d, system.b,
                system.b_tilde, system.y):
        out.append(" ".join(map(str, vec)))
    return "\n".join(out) + "\n"


def cmd_solve(args) -> int:
    if args.tol is not None and args.mode != "float":
        raise UsageError("--tol applies to --mode float only")
    if args.tol is not None and not args.tol >= 0:
        raise UsageError(f"--tol must be >= 0, got {args.tol!r}")
    system = _read(args.path)
    if args.mode == "symbolic":
        report = solve_symbolic(system)
    else:
        report = solve(system, mode=args.mode, tol=args.tol)
    if args.dump_factors:
        print("alpha =", *report.factors.alpha)
        print("beta  =", *report.factors.beta)
        print("gamma =", *report.factors.gamma)
        print("z     =", *report.z)
    lines = list(map(str, report.x))
    if args.det:
        lines.append(f"det(A1) = {report.det}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_check(args) -> int:
    system = _read(args.path)
    try:
        report = solve_symbolic(system)
    except PoleAtZero:
        report = None
    try:
        oracle_x = dense_solve(densify(system), system.y)
    except Singular:
        oracle_x = None
    if report is None and oracle_x is None:
        print("SINGULAR: both the banded and the dense path report no "
              "unique solution", file=sys.stderr)
        return EXIT_SINGULAR
    if (oracle_x is None and report.det == 0
            and band_product(system, report.x) == system.y):
        # consistent singular system: a solution exists, but not a unique one
        print("SINGULAR: no unique solution; the banded path found a "
              "solution with det(A1) = 0")
        print("x:", *report.x)
        print(f"mode: {report.mode}")  # det(A1) = 0: a pivot was replaced
        return EXIT_SINGULAR
    if report is None or oracle_x is None or tuple(report.x) != tuple(oracle_x):
        print("MISMATCH")
        print("banded:", "singular" if report is None
              else " ".join(map(str, report.x)))
        print("oracle:", "singular" if oracle_x is None
              else " ".join(map(str, oracle_x)))
        return (EXIT_SINGULAR if report is None or oracle_x is None
                else EXIT_MISMATCH)
    print("MATCH")
    print("x:", *report.x)
    print("mode:", "symbolic" if report.pivot_replacements else "exact")
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        system = generate(GeneratorConfig(
            seed=args.seed, n=args.n, entry_range=args.range,
            force_zero_pivots=tuple(args.zero)))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    header = (f"generated: seed={args.seed} n={args.n} range={args.range}"
              + (f" zero={','.join(args.zero)}" if args.zero else ""))
    text = format_system(system, header)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: "
                             f"{exc.strerror}") from None
    else:
        sys.stdout.write(text)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache  # built once per process: parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="backpenta",
                     description="Solve backward pentadiagonal linear systems.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a system file")
    p_solve.add_argument("path")
    p_solve.add_argument("--mode", choices=("float", "exact", "symbolic"),
                         default="exact")
    p_solve.add_argument("--det", action="store_true",
                         help="also print det(A1)")
    p_solve.add_argument("--tol", type=float, default=None,
                         help="float mode: treat |beta_i| < tol as a zero pivot")
    p_solve.add_argument("--dump-factors", action="store_true",
                         help="print the alpha/beta/gamma/z vectors")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser(
        "check", help="cross-check against the dense exact oracle",
        description="Run solve_symbolic once and the dense Bareiss oracle "
        "on the n x n matrix, and compare their x. The oracle takes O(n^3) "
        "time and O(n^2) memory: at n = 3000 it gave no result after 110 s "
        "of CPU.")
    p_check.add_argument("path")
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen", help="generate a random system file")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--range", type=int, default=9)
    p_gen.add_argument("--zero", action="append", default=[],
                       metavar="BAND_POS",
                       help="zero a band entry, e.g. d_n (repeatable)")
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    digit_limit = sys.get_int_max_str_digits()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # OverflowError: a literal beyond the float range, in float mode
    except (ParseError, SizeTooSmall, LengthMismatch, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ZeroPivot as exc:
        print(exc, file=sys.stderr)
        return EXIT_ZERO_PIVOT
    except PoleAtZero as exc:
        print(f"singular: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    finally:  # undo _read's lift
        sys.set_int_max_str_digits(digit_limit)


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (e.g. `| head -1`). Point stdout at
        # devnull so the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)
