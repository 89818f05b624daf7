"""The benchmark workloads: inputs, the timed operation and its check.

No usage traffic is recorded anywhere, so the workloads follow the usage
shown in the README and ROADMAP; treat them as a stated assumption, not
as measured traffic. Each is a closed loop with one caller. An op's
output is checked outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import backpenta.cli as cli
import backpenta.solver as solver
from backpenta.oracle import (GeneratorConfig, Singular, SplitMix64,
                              dense_solve, force_interior_zero_pivot,
                              generate)
from backpenta.ratfunc import PoleAtZero
from backpenta.systems import densify

from bands import backward_error, band_product, dominant_system

# Float answers pass when eta is at most this (about 4500 units of
# roundoff); det is not checked, since the float pivot product of a large
# system overflows to -inf.
ETA_TOL = 1e-12


@dataclass(frozen=True)
class Case:
    system: object
    path: Optional[str] = None  # system file of the CLI workload


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    pool: int  # distinct inputs, cycled in order
    mode: str  # "float" or "symbolic": scalar field for the exact counters
    build: Callable  # (seed, workload, workdir) -> [Case]
    op: Callable  # Case -> result; the timed call
    fingerprint: Callable  # result -> value equal only for identical outputs
    check: Callable  # (Case, result) -> (ok, eta or None)
    # result -> the small part kept for the rescue statistics
    outcome: Callable = lambda result: None


def _subseeds(seed, count):
    rng = SplitMix64(seed)
    return [rng.next_u64() for _ in range(count)]


def _dominant_cases(seed, w, workdir):
    return [Case(dominant_system(s, w.n)[0]) for s in _subseeds(seed, w.pool)]


def _file_cases(seed, w, workdir):
    cases = []
    for i, case in enumerate(_dominant_cases(seed, w, workdir)):
        path = os.path.join(workdir, f"{w.name}-{i}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cli.format_system(case.system, f"{w.name} case {i}"))
        cases.append(Case(case.system, path))
    return cases


def _rescue_cases(seed, w, workdir):
    # Half with d_n zeroed (the exact attempt fails at beta_1), half with
    # beta_(n/2) forced to zero (it fails midway, wasting its work).
    # force_interior_zero_pivot keeps y, so x* no longer applies.
    cases = []
    for k, s in enumerate(_subseeds(seed, w.pool)):
        if k % 2 == 0:
            cfg = GeneratorConfig(seed=s, n=w.n, force_zero_pivots=("d_n",))
            cases.append(Case(generate(cfg)))
            continue
        system = None
        while system is None:  # None: an earlier pivot was already zero
            system = force_interior_zero_pivot(
                generate(GeneratorConfig(seed=s, n=w.n)), w.n // 2)
            s += 1
        cases.append(Case(system))
    return cases


def _float_op(case):
    return solver.solve(case.system, mode="float")


def _rescue_op(case):
    try:
        return "exact", solver.solve(case.system, mode="exact")
    except solver.ZeroPivot:
        pass
    try:
        return "symbolic", solver.solve_symbolic(case.system)
    except PoleAtZero as exc:
        return "pole", exc


def _cli_op(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["solve", case.path, "--mode", "float", "--det"])
    return code, out.getvalue()


def _float_fingerprint(report):
    return array("d", report.x).tobytes(), repr(report.det)


def _rescue_fingerprint(result):
    kind, out = result
    if kind == "pole":
        return kind, type(out).__name__
    return kind, out.x, out.det, out.pivot_replacements


def _rescue_outcome(result):
    kind, out = result
    return kind, getattr(out, "pivot_replacements", ())


def _check_float_x(case, x):
    if len(x) != case.system.n or not all(math.isfinite(v) for v in x):
        return False, None
    eta = backward_error(case.system, x)
    return eta <= ETA_TOL, eta


def _check_float(case, report):
    return _check_float_x(case, report.x)


def _check_rescue(case, result):
    kind, out = result
    try:
        want = dense_solve(densify(case.system), case.system.y)
    except Singular:
        # No unique solution: a pole passes, and so does an x that solves
        # the (consistent) system exactly, reported with det 0.
        return kind == "pole" or (
            out.det == 0
            and band_product(case.system, out.x) == list(case.system.y)), None
    return kind != "pole" and out.x == want, None


def _check_cli(case, result):
    code, text = result
    lines = text.splitlines()
    if code != 0 or not lines or not lines[-1].startswith("det(A1) = "):
        return False, None
    return _check_float_x(case, [float(v) for v in lines[:-1]])


# Why each workload was chosen: BENCHMARK.json and perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("float-bulk", 50_000, 2, "float", _dominant_cases, _float_op,
             _float_fingerprint, _check_float),
    Workload("rescue", 40, 48, "symbolic", _rescue_cases, _rescue_op,
             _rescue_fingerprint, _check_rescue, _rescue_outcome),
    Workload("cli-float-file", 5_000, 4, "float", _file_cases, _cli_op,
             lambda result: result, _check_cli),
)}
