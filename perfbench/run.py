"""backpenta benchmark: one closed-loop caller, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. With
--trace 0 the run prints the end-to-end metrics, with times scaled to a
reference host speed (see speed.py). With --trace 1 it alternates
untraced and traced ops on the same inputs, then prints the per-layer
metrics and writes the spans to .perfbench_out/. The last line of
standard output is one JSON object; the lines before it repeat each
metric with its unit, and the environment. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter, perf_counter_ns

from speed import probe_ms, scale

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
MIN_OPS = 100  # p90 then has at least 10 samples beyond it
PROBE_WINDOW = 3  # probes on each side of an op that set its speed
HARD_LIMIT_S = 100.0  # stop measuring even if MIN_OPS is not reached

END_TO_END_UNITS = {"rows_per_s": "rows/s", "latency_ms_p50": "ms",
                    "latency_ms_p90": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{name: "ms" for name in (
        "systems.lift_ms", "systems.reverse_ms", "solver.factor_ms",
        "solver.forward_ms", "solver.back_ms", "solver.det_ms",
        "solver.solve_self_ms", "ratfunc.eval_ms", "cli.parse_ms",
        "cli.solve_ms", "cli.output_ms", "rescue.wasted_exact_ms")},
    **{name: "count" for name in (
        "solver.ops_per_row", "solver.max_bits", "ratfunc.ops",
        "ratfunc.max_degree", "ratfunc.max_coeff_bits",
        "rescue.replacements_per_solve")},
    **{name: "ratio" for name in (
        "rescue.fallback_share", "rescue.leading_share",
        "rescue.interior_share", "rescue.useful_work_ratio",
        "solver.max_backward_error")},
    "ratfunc.ns_per_op": "ns",
    "trace.overhead_pct": "%",
}


class Verifier:
    """Checks every op outside the timed region.

    The first output for each input gets the workload's full check; later
    outputs for the same input must be bit-identical to it, since a solve
    is a pure function of its input. In the traced run this compares
    every traced output with the untraced output of the same input.
    """

    def __init__(self, workload):
        self.workload = workload
        self.refs = {}
        self.etas = []
        self.errors = []

    def accept(self, index, case, result) -> bool:
        fp = self.workload.fingerprint(result)
        if index not in self.refs:
            ok, eta = self.workload.check(case, result)
            if eta is not None:
                self.etas.append(eta)
            if not ok:
                self.errors.append(f"case {index}: wrong output")
                return False
            self.refs[index] = fp
            return True
        if fp != self.refs[index]:
            self.errors.append(f"case {index}: output differs from the "
                               f"checked output of the same input")
            return False
        return True


class Run:
    """Latencies and counts of one series of ops."""

    def __init__(self):
        self.lat, self.outcomes = [], []
        self.attempted = self.failed = self.rows = self.timed_ns = 0
        self.scaled_lat, self.scaled_ns = [], 0.0  # at reference speed

    def op(self, workload, cases, index, verifier, tracer=None):
        """Time one op on cases[index], then check it untimed. Returns
        the op time in ns and whether the output passed."""
        case = cases[index]
        self.attempted += 1
        start = perf_counter_ns()
        try:
            if tracer is None:
                result = workload.op(case)
            else:
                result = tracer.run_op(self.attempted, workload.op, case)
        except Exception:  # an unexpected exception is a failed op
            dt = perf_counter_ns() - start
            self.timed_ns += dt
            self.failed += 1
            verifier.errors.append(traceback.format_exc(limit=3))
            return dt, False
        dt = perf_counter_ns() - start
        self.timed_ns += dt
        if verifier.accept(index, case, result):
            self.lat.append(dt)
            self.rows += case.system.n
            self.outcomes.append(workload.outcome(result))
            return dt, True
        self.failed += 1
        return dt, False


def measure(workload, cases, seconds, verifier):
    """Closed loop over the cases in order until `seconds` of timed op
    work and at least MIN_OPS ops are done. A host-speed probe runs
    between ops; each op's time at reference speed uses the probes of
    the PROBE_WINDOW ops before and after it."""
    run, limit = Run(), perf_counter() + HARD_LIMIT_S
    probes, times = [probe_ms()], []
    while ((run.timed_ns < seconds * 1e9 or run.attempted < MIN_OPS)
           and perf_counter() < limit):
        times.append(run.op(workload, cases, run.attempted % len(cases),
                            verifier))
        probes.append(probe_ms())
    for k, (dt, ok) in enumerate(times):
        dt *= scale(probes[max(0, k + 1 - PROBE_WINDOW):k + 1 + PROBE_WINDOW])
        run.scaled_ns += dt
        if ok:
            run.scaled_lat.append(dt)
    return run


def setup(workload, seed, workdir, repeats):
    """Build the inputs and run one untimed warm-up op, `repeats` times;
    returns the last cases and the median set-up time, raw and at
    reference speed."""
    raw, scaled = [], []
    probe_ms()  # the first probe in a process pays one-time costs
    before = probe_ms()
    for _ in range(repeats):
        start = perf_counter()
        cases = workload.build(seed, workload, workdir)
        workload.op(cases[0])
        raw.append(perf_counter() - start)
        after = probe_ms()
        scaled.append(raw[-1] * scale([before, after]))
        before = after
    return cases, statistics.median(raw), statistics.median(scaled)


def environment(workload, cases):
    """Python, commit, cores, caches and the computed input bytes."""
    caches = {}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True,
                              timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        text = ""
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    per_op = (os.path.getsize(cases[0].path) if cases[0].path
              else deep_size(cases[0].system))
    llc = cache_bytes(caches.get("L3 cache") or caches.get("L2 cache", ""))
    return {
        "python": platform.python_version(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "l2": caches.get("L2 cache", "unknown"),
        "l3": caches.get("L3 cache", "unknown"),
        "input_bytes_per_op": per_op,
        "input_bytes_pool": per_op * len(cases),
        "pool_vs_llc": (per_op * len(cases) / llc) if llc else None,
    }


def deep_size(system) -> int:
    """Computed bytes of a system's tuples and distinct scalar objects."""
    seen, total = set(), 0
    for vec in (system.a_tilde, system.a, system.d, system.b,
                system.b_tilde, system.y):
        total += sys.getsizeof(vec)
        for v in vec:
            if id(v) not in seen:
                seen.add(id(v))
                total += sys.getsizeof(v)
    return total


def cache_bytes(text) -> int:
    """'300 MiB (1 instance)' -> 314572800; 0 when unknown."""
    units = {"KiB": 1 << 10, "MiB": 1 << 20, "GiB": 1 << 30,
             "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    parts = text.split()
    try:
        return int(float(parts[0]) * units[parts[1]])
    except (IndexError, KeyError, ValueError):
        return 0


def end_to_end(run, setup_s, lat, timed_ns):
    lat_ms = [v / 1e6 for v in lat]
    return {
        "rows_per_s": run.rows / (timed_ns / 1e9),
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_p90": statistics.quantiles(lat_ms, n=10)[8],
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def rescue_metrics(outcomes):
    """Fallback and replacement statistics of the rescue flow, from
    (kind, pivot_replacements) outcomes; 0 on the other workloads."""
    kinds = [o for o in outcomes if o is not None]
    replaced = [r for kind, r in kinds if kind == "symbolic"]
    share = lambda k: k / len(replaced) if replaced else 0.0
    return {
        "rescue.fallback_share": sum(kind != "exact" for kind, _ in kinds)
        / len(outcomes),
        "rescue.replacements_per_solve": share(sum(map(len, replaced))),
        "rescue.leading_share": share(sum(r[:1] == (1,) for r in replaced)),
        "rescue.interior_share": share(sum(r[:1] > (1,) for r in replaced)),
    }


def traced_run(workload, cases, seconds, verifier):
    from tracing import Tracer, exact_counters

    # Untraced and traced ops alternate on the same input, in alternating
    # order, so slow periods of the host hit both series alike. The
    # wrappers are removed around every untraced op.
    plain, traced, tracer = Run(), Run(), Tracer()
    limit = perf_counter() + HARD_LIMIT_S
    pair = 0
    while ((plain.timed_ns + traced.timed_ns < seconds * 1e9
            or pair < len(cases)) and perf_counter() < limit):
        index = pair % len(cases)
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.installed():
                    traced.op(workload, cases, index, verifier, tracer)
            else:
                plain.op(workload, cases, index, verifier)
        pair += 1
    metrics = tracer.layer_metrics()
    metrics.update(rescue_metrics(traced.outcomes))
    counters = [exact_counters(cases[0].system, workload.mode,
                               lambda: workload.op(cases[0]))
                for _ in range(2)]
    if counters[0] != counters[1]:
        verifier.errors.append(f"exact counters differ between two runs: "
                               f"{counters}")
    metrics.update(counters[0])
    metrics["solver.max_backward_error"] = max(verifier.etas, default=0.0)
    metrics["trace.overhead_pct"] = 100 * (
        statistics.median(traced.lat) / statistics.median(plain.lat) - 1)
    return metrics, [plain, traced], tracer.dump()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "backpenta", "__init__.py")):
        print(f"error: no backpenta package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import ETA_TOL, WORKLOADS  # imports backpenta from SRC

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"inputs-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cases, raw_setup_s, setup_s = setup(
            workload, args.seed, workdir, 1 if args.trace else SETUP_REPEATS)
        verifier = Verifier(workload)
        if args.trace:
            metrics, runs, spans = traced_run(workload, cases, args.seconds,
                                              verifier)
        else:
            runs = [measure(workload, cases, args.seconds, verifier)]
            metrics = end_to_end(runs[0], setup_s, runs[0].scaled_lat,
                                 runs[0].scaled_ns)
            raw = end_to_end(runs[0], raw_setup_s, runs[0].lat,
                             runs[0].timed_ns)
        env = environment(workload, cases)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    if args.trace:
        path = os.path.join(OUT_DIR, f"spans-{workload.name}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "environment": env, "spans": spans}, fh)
    for err in verifier.errors[:5]:
        print(f"check failed: {err}", file=sys.stderr)
    print(f"workload {workload.name}: n={workload.n} pool={len(cases)}, "
          f"closed loop, 1 caller")
    for key, value in env.items():
        print(f"env {key}: {value}")
    samples = sum(len(r.lat) for r in runs)
    print(f"samples: {samples} verified ops of {attempted} attempted")
    print(f"fail_ratio: {failed / attempted:.6g}")
    if not args.trace:
        print(f"max_backward_error: {max(verifier.etas, default=0.0):.3g} "
              f"(float workloads only; each op passes at <= {ETA_TOL:g})")
        for name in ("rows_per_s", "latency_ms_p50", "latency_ms_p90",
                     "setup_s"):
            print(f"raw {name}: {raw[name]:.6g} {END_TO_END_UNITS[name]} "
                  f"(wall clock, not scaled to reference speed)")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: "
                           f"{sorted(set(metrics) ^ set(units))}")
    result = {}
    for name, unit in units.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
        result[name] = {"value": metrics[name], "unit": unit}
    print(json.dumps({"correct": failed == 0 and not verifier.errors,
                      "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
