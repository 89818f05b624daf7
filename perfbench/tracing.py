"""Span recorder and exact counters for the traced benchmark run.

Spans come from wrappers installed on public names at their module (or
class) attributes. The solver and the CLI look those names up at call
time, so `solve()` and `cli.main()` emit child spans without any edit to
the program. Spans stay in memory with their parent ids until the run
ends; `installed()` puts every original attribute back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from collections import Counter
from fractions import Fraction
from time import perf_counter_ns

import backpenta.cli as cli
import backpenta.solver as solver
from backpenta.instrument import CountingScalar, OpCounter
from backpenta.ratfunc import RationalFunction
from backpenta.systems import BackwardPentaSystem

# (owner, attribute, span name). One function may sit under two owners
# (cli.solve is solver.solve); each attribute gets its own wrapper.
TARGETS = (
    (BackwardPentaSystem, "map_scalars", "systems.lift"),
    (solver, "reverse_rows", "systems.reverse"),
    (solver, "factor", "solver.factor"),
    (solver, "factor_symbolic", "solver.factor_symbolic"),
    (solver, "forward_sweep", "solver.forward"),
    (solver, "back_substitute", "solver.back"),
    (solver, "determinant", "solver.det"),
    (solver, "solve", "solve"),
    (solver, "solve_symbolic", "solve_symbolic"),
    (RationalFunction, "eval_at_zero", "ratfunc.eval"),
    (cli, "main", "cli.main"),
    (cli, "read_system", "cli.parse"),
    (cli, "solve", "solve"),
    (cli, "solve_symbolic", "solve_symbolic"),
)

# Q(x) arithmetic entry points; only the outermost call of a nest counts.
RATFUNC_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__")

# Per-layer time metric -> span keys summed per op (see Tracer.per_op).
LAYER_MS = {
    "systems.lift_ms": ("systems.lift",),
    "systems.reverse_ms": ("systems.reverse",),
    "solver.factor_ms": ("solver.factor", "solver.factor_symbolic"),
    "solver.forward_ms": ("solver.forward",),
    "solver.back_ms": ("solver.back",),
    "solver.det_ms": ("solver.det",),
    "solver.solve_self_ms": ("solve:self", "solve_symbolic:self"),
    "ratfunc.eval_ms": ("ratfunc.eval",),
    "cli.parse_ms": ("cli.parse",),
    "cli.solve_ms": ("cli.main>solve", "cli.main>solve_symbolic"),
    "cli.output_ms": ("cli.main:self",),
    "rescue.wasted_exact_ms": ("solve:ZeroPivot",),
}

NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    """In-memory spans [name, start_ns, end_ns, parent, op, error] plus a
    count and the time of RationalFunction arithmetic calls."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._op = None
        self._in_ratfunc = False
        self.ratfunc_ops = 0
        self.ratfunc_ns = 0

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, self._open[-1] if self._open else None,
                   self._op, None]
            self._open.append(len(self.spans))
            self.spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = perf_counter_ns()
                self._open.pop()
        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            if self._in_ratfunc:
                return fn(*args)
            self._in_ratfunc = True
            start = perf_counter_ns()
            try:
                return fn(*args)
            finally:
                self.ratfunc_ns += perf_counter_ns() - start
                self.ratfunc_ops += 1
                self._in_ratfunc = False
        return wrapper

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) as the root span "op" of operation op_id."""
        self._op = op_id
        try:
            return self._span("op", fn)(*args)
        finally:
            self._op = None

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target while the block runs, then restore the
        originals and check that they are back."""
        wraps = ([(owner, attr, functools.partial(self._span, name))
                  for owner, attr, name in TARGETS]
                 + [(RationalFunction, attr, self._counted)
                    for attr in RATFUNC_OPS])
        saved = []
        try:
            for owner, attr, wrap in wraps:
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrap(vars(owner)[attr]))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
        left = [attr for owner, attr, original in saved
                if vars(owner)[attr] is not original]
        if left:
            raise RuntimeError(f"wrappers not removed: {left}")

    def per_op(self) -> dict:
        """op id -> Counter of ns: per span name its total and, under
        "name:self", its self time; "name:Error" for spans that raised;
        "cli.main>name" for direct children of cli.main."""
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] is not None:
                child[rec[PARENT]] += rec[END] - rec[START]
        ops = {}
        for i, rec in enumerate(self.spans):
            acc = ops.setdefault(rec[OP], Counter())
            dur = rec[END] - rec[START]
            acc[rec[NAME]] += dur
            acc[rec[NAME] + ":self"] += dur - child[i]
            if rec[ERROR]:
                acc[f"{rec[NAME]}:{rec[ERROR]}"] += dur
            parent = rec[PARENT]
            if parent is not None and self.spans[parent][NAME] == "cli.main":
                acc["cli.main>" + rec[NAME]] += dur
        return ops

    def layer_metrics(self) -> dict:
        """Median per op of each LAYER_MS metric, in ms, plus the ratfunc
        time per call and the share of op time not lost to failed exact
        attempts."""
        ops = self.per_op()
        out = {metric: statistics.median(sum(acc[k] for k in keys)
                                         for acc in ops.values()) / 1e6
               for metric, keys in LAYER_MS.items()}
        total = sum(acc["op"] for acc in ops.values())
        wasted = sum(acc["solve:ZeroPivot"] for acc in ops.values())
        out["rescue.useful_work_ratio"] = (total - wasted) / total
        out["ratfunc.ns_per_op"] = (self.ratfunc_ns / self.ratfunc_ops
                                    if self.ratfunc_ops else 0.0)
        return out

    def dump(self) -> list:
        return [{"id": i, "name": r[NAME], "start_ns": r[START],
                 "end_ns": r[END], "parent": r[PARENT], "op": r[OP],
                 "error": r[ERROR]} for i, r in enumerate(self.spans)]


def _bits(v) -> int:
    if isinstance(v, RationalFunction):
        return max(_bits(c) for c in v.num.coeffs + v.den.coeffs)
    if isinstance(v, (int, Fraction)):
        v = Fraction(v)
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    return 0  # floats carry no growing integers


def _degree(v) -> int:
    if isinstance(v, RationalFunction):
        return max(v.num.degree, v.den.degree)
    return 0


def exact_counters(system, mode, op) -> dict:
    """Counts that must repeat exactly for one system.

    solver.ops_per_row runs the public factor and sweeps over
    CountingScalar values, as acceptance criterion 7 does; the same run
    yields the beta, x (pre-substitution in symbolic mode) and factor
    vectors for the bit-length and degree counts. ratfunc.ops counts the
    RationalFunction arithmetic calls of one workload op.
    """
    counter = OpCounter()
    if mode == "symbolic":
        lift = lambda v: CountingScalar(
            RationalFunction.constant(Fraction(v)), counter)
        factor = solver.factor_symbolic
    else:
        lift = lambda v: CountingScalar(float(v), counter)
        factor = solver.factor
    p = solver.reverse_rows(system.map_scalars(lift))
    lu = factor(p)
    x = solver.back_substitute(p, lu, solver.forward_sweep(p, lu))
    unwrap = lambda vs: [getattr(v, "value", v) for v in vs]
    beta_x = unwrap(lu.beta) + unwrap(x)
    factors = unwrap(lu.alpha) + unwrap(lu.gamma) + beta_x
    rf = [v for v in factors if isinstance(v, RationalFunction)]
    tracer = Tracer()
    with tracer.installed():
        op()
    return {
        "solver.ops_per_row": counter.count / system.n,
        "solver.max_bits": max(_bits(v) for v in beta_x),
        "ratfunc.ops": tracer.ratfunc_ops,
        "ratfunc.max_degree": max((_degree(v) for v in rf), default=0),
        "ratfunc.max_coeff_bits": max((_bits(v) for v in rf), default=0),
    }
