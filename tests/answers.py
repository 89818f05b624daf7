"""The one reference answer that the kernel gates compare against.

Float solve's streamed pass, exact solve's Z[x] band kernel and
solve_symbolic are each fuzzed against the paper's recurrences, run on
the system lifted to the mode's scalars: reverse_rows, then factor
(factor_symbolic in symbolic mode), forward_sweep, back_substitute and
determinant. reference gives that answer and solved the same shape from
solve or solve_symbolic, so a rewrite of a kernel is gated by comparing
the two. divided gives a corpus system with non-integer Fraction entries.
Only public backpenta names are used: the reference shares no code with
the kernels.

An answer is (the bytes of x as doubles, repr(det)) in float mode, so
that NaN and the sign of zero compare; (x, det) in exact mode; (x, det,
pivot replacements, x_presub) in symbolic mode; and (type, message) for
an ArithmeticError or ValueError.
"""

from array import array
from fractions import Fraction

from backpenta import (IdenticallySingular, PoleAtZero, RationalFunction,
                       SplitMix64, back_substitute, determinant, factor,
                       factor_symbolic, forward_sweep, reverse_rows, solve,
                       solve_symbolic)

_SCALARS = {"float": float, "exact": Fraction,
            "symbolic": lambda v: RationalFunction.constant(Fraction(v))}


def lifted(system, mode):
    """A1 X = Y1 over the scalars of mode."""
    return reverse_rows(system.map_scalars(_SCALARS[mode]))


def reference(system, mode, tol=None):
    """The recurrences' answer; in symbolic mode x is x_presub at x = 0."""
    def run():
        p = lifted(system, mode)
        lu = factor_symbolic(p) if mode == "symbolic" else factor(p, tol=tol)
        x = back_substitute(p, lu, forward_sweep(p, lu))
        if mode != "symbolic":
            return x, determinant(lu)
        try:
            values = tuple(v.eval_at_zero() for v in x)
        except PoleAtZero:
            n = system.n
            if n in lu.replacements:
                raise IdenticallySingular(f"beta[{n}] is identically zero; "
                                          "no finite solution") from None
            raise
        return values, determinant(lu), lu.replacements, x

    return _answer(run, mode)


def solved(system, mode, tol=None):
    """solve's answer, or solve_symbolic's in symbolic mode."""
    def run():
        if mode == "symbolic":
            report = solve_symbolic(system)
            return (report.x, report.det, report.pivot_replacements,
                    report.x_presub)
        report = solve(system, mode=mode, tol=tol)
        return report.x, report.det

    return _answer(run, mode)


def _answer(run, mode):
    try:
        answer = run()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    if mode == "float":
        x, det = answer
        return array("d", x).tobytes(), repr(det)
    return answer


def divided(system, seed, top):
    """system with every entry, in map_scalars order, divided by
    1 + next_u64() % top of SplitMix64(seed): the same zeros, and Fraction
    entries that are not integers."""
    rng = SplitMix64(seed)
    return system.map_scalars(lambda v: Fraction(v, 1 + rng.next_u64() % top))
