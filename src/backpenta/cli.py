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
of at most four digits (1e9999, not 1e10000). A data line of integers
only is read with int; any other line goes through the Fraction grammar
(ratfunc.from_literal). Both give equal values, so every mode prints the
same output either way.

Exit codes (main reports every failure): 0 success; 1 "usage error: ..."
(bad arguments, --tol outside float mode), "error: ..." (unreadable or
malformed file, a float-mode literal beyond the float range, bad gen
arguments, unwritable --out) or stdout closed by its reader (`| head`;
nothing on stderr); 2 zero pivot (float/exact); 3 "singular: ..." or
check's SINGULAR; 4 check: the banded and dense solutions differ.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .oracle import GeneratorConfig, Singular, dense_solve, generate
from .ratfunc import PoleAtZero, from_literal
from .solver import (ZeroPivot, factor_symbolic, forward_sweep, solve,
                     solve_symbolic)
from .systems import (BackwardPentaSystem, LengthMismatch, SizeTooSmall,
                      densify, new_system, reverse_rows)

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


def _parse_entries(line: str) -> list:
    # The checks in parse_system_text leave no token that int reads and
    # Fraction rejects, and a token over the digit limit fails both ways.
    try:
        return list(map(int, line.split()))
    except ValueError:
        return [from_literal(tok) for tok in line.split()]


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
    # Fraction takes '_' from Python 3.11 on; long exponents parse slowly
    for k, ln in enumerate(lines[1:], 2):
        if not ln.isascii() or "_" in ln or _LONG_EXPONENT.search(ln):
            raise ParseError(f"data line {k}: entries must be ASCII, without "
                             "'_', with exponents of at most 4 digits")
    try:
        vectors = [_parse_entries(ln) for ln in lines[1:]]
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
    if hasattr(sys, "set_int_max_str_digits"):  # Python >= 3.10.7
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
    system = _read(args.path)
    if args.mode == "symbolic":
        report = solve_symbolic(system)
    else:
        report = solve(system, mode=args.mode, tol=args.tol)
    if args.dump_factors:
        lu, z = report.factors, report.z
        if lu is None:  # symbolic: the kernel keeps no factors; use Q(x)
            p = reverse_rows(system.map_scalars(Fraction))
            lu = factor_symbolic(p)
            z = forward_sweep(p, lu)
        print("alpha =", *lu.alpha)
        print("beta  =", *lu.beta)
        print("gamma =", *lu.gamma)
        print("z     =", *z)
    for xi in report.x:
        print(xi)
    if args.det:
        print(f"det(A1) = {report.det}")
    return EXIT_OK


def cmd_check(args) -> int:
    system = _read(args.path)
    try:
        report = solve(system, mode="exact")
    except ZeroPivot:
        try:
            report = solve_symbolic(system)
        except PoleAtZero:
            report = None
    dense = densify(system)
    try:
        oracle_x = dense_solve(dense, system.y)
    except Singular:
        oracle_x = None
    if report is None and oracle_x is None:
        print("SINGULAR: both the banded and the dense path report no "
              "unique solution", file=sys.stderr)
        return EXIT_SINGULAR
    if oracle_x is None and report.det == 0 and all(
            sum(c * v for c, v in zip(row, report.x)) == yi
            for row, yi in zip(dense, system.y)):
        # consistent singular system: a solution exists, but not a unique one
        print("SINGULAR: no unique solution; the banded path found a "
              "solution with det(A1) = 0")
        print("x:", *report.x)
        print(f"mode: {report.mode}")
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
    print(f"mode: {report.mode}")
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

    p_check = sub.add_parser("check",
                             help="cross-check against the dense exact oracle")
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
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
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
    finally:  # undo _read's lift; 0 (no limit) needs no undoing
        if digit_limit:
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
