"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import dataclasses
import json
import os

import pytest

import backpenta.cli as cli
import backpenta.solver as solver
from backpenta import (GeneratorConfig, RationalFunction, Singular,
                       dense_solve, densify, generate, new_system, solve)

import run
from bands import backward_error, band_product, dominant_system
from tracing import TARGETS, Tracer, exact_counters
from workloads import ETA_TOL, WORKLOADS, Case


@pytest.mark.parametrize("n", [5, 6, 7, 12, 31])
@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
def test_builder_matches_dense_oracle(seed, n):
    system, x_star = dominant_system(seed, n)
    dense = densify(system)
    assert band_product(system, x_star) == [
        sum(c * x for c, x in zip(row, x_star)) for row in dense]
    assert dense_solve(dense, system.y) == x_star
    for r, row in enumerate(dense):  # strict row diagonal dominance
        diag = abs(system.d[r])
        assert diag > sum(abs(v) for v in row) - diag
    assert solve(system, mode="exact").x == x_star


def test_builder_is_deterministic():
    assert dominant_system(7, 50) == dominant_system(7, 50)
    assert dominant_system(7, 50) != dominant_system(8, 50)


def test_backward_error_separates_good_and_bad_answers():
    system, x_star = dominant_system(3, 40)
    assert backward_error(system, x_star) == 0
    assert backward_error(system, solve(system, mode="float").x) <= ETA_TOL
    wrong = list(x_star)
    wrong[5] += 1
    assert backward_error(system, wrong) > 1e-3


def test_backward_error_matches_dense_definition():
    system = new_system([1, 2, 3], [4, 5, 6, 7], [20, -30, 25, 40, -35],
                        [1, -1, 2, -2], [3, 1, -3], [1, 2, 3, 4, 5])
    x = [0.5, -0.25, 1.0, 2.0, -1.0]
    dense = densify(system)
    res = max(abs(y - sum(a * v for a, v in zip(row, x)))
              for row, y in zip(dense, system.y))
    norm_a = max(sum(abs(a) for a in row) for row in dense)
    want = res / (norm_a * max(map(abs, x)) + max(map(abs, system.y)))
    assert backward_error(system, x) == pytest.approx(want, rel=1e-12)


def test_tracer_records_nested_spans_and_removes_wrappers():
    originals = [vars(owner)[attr] for owner, attr, _ in TARGETS]
    system, _ = dominant_system(1, 20)
    tracer = Tracer()
    with tracer.installed():
        report = tracer.run_op(1, lambda s: solver.solve(s, mode="float"),
                               system)
    assert [vars(owner)[attr] for owner, attr, _ in TARGETS] == originals
    names = {rec[0]: rec for rec in tracer.spans}
    assert set(names) == {"op", "solve", "systems.lift", "systems.reverse",
                          "solver.factor", "solver.forward", "solver.back",
                          "solver.det"}
    spans = tracer.spans
    assert spans[names["solve"][3]][0] == "op"
    assert spans[names["solver.factor"][3]][0] == "solve"
    assert all(rec[4] == 1 for rec in spans)
    ops = tracer.per_op()[1]
    assert ops["solve"] == ops["solve:self"] + sum(
        ops[k] for k in ("systems.lift", "systems.reverse", "solver.factor",
                         "solver.forward", "solver.back", "solver.det"))
    assert report.x == solver.solve(system, mode="float").x


def test_tracer_sees_cli_children_and_failed_attempts(tmp_path, capsys):
    system, _ = dominant_system(2, 12)
    path = tmp_path / "s.txt"
    path.write_text(cli.format_system(system))
    zero_d = new_system(system.a_tilde, system.a, system.d[:-1] + (0,),
                        system.b, system.b_tilde, system.y)
    tracer = Tracer()
    with tracer.installed():
        tracer.run_op(1, cli.main, ["solve", str(path), "--mode", "float"])
        with pytest.raises(solver.ZeroPivot):
            tracer.run_op(2, solver.solve, zero_d)
        RationalFunction.x() + RationalFunction.x()
    capsys.readouterr()
    ops = tracer.per_op()
    # cmd_solve is not wrapped, so its calls are direct children of main
    assert ops[1]["cli.main>cli.parse"] == ops[1]["cli.parse"] > 0
    assert ops[1]["cli.main>solve"] > 0
    assert ops[2]["solve:ZeroPivot"] == ops[2]["solve"] > 0
    assert tracer.ratfunc_ops == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_counters_repeat_and_small_cases_pass(name, tmp_path):
    w = WORKLOADS[name]
    small = dataclasses.replace(w, n=12, pool=4)
    cases = small.build(5, small, str(tmp_path))
    for case in cases:
        ok, _ = small.check(case, small.op(case))
        assert ok
    run = lambda: exact_counters(cases[0].system, small.mode,
                                 lambda: small.op(cases[0]))
    first = run()
    assert first == run()
    assert first["solver.ops_per_row"] > 0
    assert (first["ratfunc.ops"] > 0) == (small.mode == "symbolic")



def test_rescue_gate_accepts_exact_solutions_of_singular_systems():
    # Consistent and singular: the oracle refuses, the rescue returns an
    # exact solution with det 0, and a wrong x must still fail.
    w, case = WORKLOADS["rescue"], Case(generate(
        GeneratorConfig(seed=29, n=6, force_zero_pivots=("d_n",))))
    with pytest.raises(Singular):
        dense_solve(densify(case.system), case.system.y)
    kind, report = w.op(case)
    assert kind == "symbolic" and report.det == 0
    assert w.check(case, (kind, report))[0]
    wrong = dataclasses.replace(report, x=(report.x[0] + 1,) + report.x[1:])
    assert not w.check(case, (kind, wrong))[0]


def test_benchmark_json_matches_the_runner():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, units in (("end_to_end", run.END_TO_END_UNITS),
                       ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[key]} == units
