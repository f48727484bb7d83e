"""Tests of the benchmark itself: every check can fail, inputs are seeded,
tracing restores what it wraps, and the runner honours its output contract.

Run with ``python3 -m pytest benchmarks/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import krflab.ansatz as az
import krflab.cohomology as coh
import krflab.ghmetric as gh
import krflab.maflow as mf
import reference
import tracing
import workloads as W

BENCH = Path(__file__).resolve().parent.parent


def failing(results):
    return {c.name for r in results for c in r.checks if not c.passed} | {
        r.task for r in results if r.error
    }


# -- flow-n1 -----------------------------------------------------------------


@pytest.fixture(scope="module")
def flow_n1_case():
    inputs = W.flow_n1_inputs(3, 0)
    phi = W.newton_stationary(inputs.bg)
    series = mf.DiagnosticsSeries(converged=True, termination="converged")
    return inputs, mf.FlowState(t=16.8, phi=phi, mode=mf.NORMALIZED), series


def test_flow_n1_checks_pass_on_the_stationary_solution(flow_n1_case):
    inputs, final, series = flow_n1_case
    assert failing(W.flow_n1_check(inputs, (final, series))) == set()


def test_flow_n1_checks_fail_on_corrupted_results(flow_n1_case):
    inputs, final, series = flow_n1_case
    stalled = dataclasses.replace(series, converged=False, termination="t_end")
    assert failing(W.flow_n1_check(inputs, (final, stalled))) == {"converged"}
    x, _ = inputs.bg.coordinates()
    off = dataclasses.replace(final, phi=final.phi + 1e-6 * np.cos(2 * np.pi * x))
    assert failing(W.flow_n1_check(inputs, (off, series))) == {
        "stationary residual < 1e-8",
        "final phi matches the Newton solve",
    }


def test_newton_oracle_solves_the_stationary_equation(flow_n1_case):
    inputs, final, _ = flow_n1_case
    assert np.abs(mf.ma_rhs(inputs.bg, final)).max() < 1e-12


# -- flow-n2 -----------------------------------------------------------------


@pytest.fixture(scope="module")
def flow_n2_case():
    inputs = W.flow_n2_inputs(3, 0)
    inputs.config = dataclasses.replace(inputs.config, t_end=0.002, record_every=1)
    return inputs, W.flow_solve(inputs)


def test_flow_n2_initial_floor_is_fixed():
    inputs = W.flow_n2_inputs(5, 0)
    H = inputs.bg.complex_hessian(inputs.phi0)
    _, eig_min, _ = mf.metric_determinant_and_eigs(inputs.bg.g0, H)
    assert abs(float(eig_min.min()) - W.FLOW_N2_START_EIG) < 1e-12


def test_flow_n2_checks_fail_on_corrupted_results(flow_n2_case):
    inputs, (final, series) = flow_n2_case
    assert failing(W.flow_n2_check(inputs, (final, series))) == set()

    first = series.records[0]

    def corrupt(field, value):
        bad = dataclasses.replace(series, records=list(series.records))
        bad.records[-1] = dataclasses.replace(bad.records[-1], **{field: value})
        return failing(W.flow_n2_check(inputs, (final, bad)))

    stalled = dataclasses.replace(series, termination="stalled")
    assert failing(W.flow_n2_check(inputs, (final, stalled))) == {"terminated at t_end"}
    assert corrupt("inf_R", first.inf_R - 1e-3) == {"inf R drop <= 1e-4"}
    assert corrupt("volume", first.volume * (1 + 1e-6)) == {"volume drift < 1e-6 per unit time"}


# -- gh-search ---------------------------------------------------------------


@pytest.fixture(scope="module")
def gh_case():
    inputs = W.GHInputs(
        heuristic=[W.GHPair("9 vs circle 5", gh.sample_warped_torus(1.0, 3, 3), gh.circle_space(5), 7)],
        exhaustive=[W.GHPair("4 vs circle 3", gh.sample_warped_torus(2.0, 2, 2), gh.circle_space(3), 8)],
        collapse_ts=np.linspace(0.0, 10.0, 21),
        collapse_grid=(8, 8),
    )
    return inputs, W.gh_solve(inputs)


def test_gh_checks_pass_on_real_results(gh_case):
    inputs, outputs = gh_case
    assert failing(W.gh_check(inputs, outputs)) == set()
    assert W.gh_figures(W.gh_samples(outputs))["gh_eps"] == outputs[0][0].epsilon


def test_gh_checks_fail_on_corrupted_results(gh_case):
    inputs, (heuristic, exhaustive, collapse) = gh_case
    h, e = heuristic[0], exhaustive[0]

    def check(h=h, e=e, collapse=collapse):
        return failing(W.gh_check(inputs, ([h], [e], collapse)))

    assert check(h=dataclasses.replace(h, epsilon=h.epsilon * 1.5)) == {
        "returned maps reproduce the bound"
    }
    assert check(h=dataclasses.replace(h, flag="exact")) == {"flag is heuristic"}
    gap = W._diameter_gap(inputs.heuristic[0].X, inputs.heuristic[0].Y)
    assert "bound >= |diam X - diam Y|" in check(h=dataclasses.replace(h, epsilon=gap / 2))
    assert "exact <= heuristic" in check(e=dataclasses.replace(e, epsilon=e.epsilon + 1.0))
    rising = dataclasses.replace(collapse, epsilons=collapse.epsilons[::-1])
    assert check(collapse=rising) == {"collapse bound nonincreasing in t"}


def test_diameter_gap_is_a_lower_bound():
    X, Y = gh.sample_warped_torus(0.5, 2, 3), gh.circle_space(2)
    assert gh.gh_upper_bound(X, Y).epsilon >= W._diameter_gap(X, Y)


# -- exact-queries -------------------------------------------------------------


@pytest.fixture(scope="module")
def exact_case():
    inputs = W.exact_inputs(4, 0)
    inputs.queries = inputs.queries[:120]
    return inputs, W.exact_solve(inputs)


def test_exact_inputs_cover_every_model_inside_and_outside():
    inputs = W.exact_inputs(4, 0)
    kinds = {(name, W.expected_query(name, a)["kahler"]) for name, a in inputs.queries}
    assert kinds == {(name, inside) for name in W._C1 for inside in (True, False)}


def test_exact_checks_pass_and_report_latency(exact_case):
    inputs, outputs = exact_case
    assert failing(W.exact_check(inputs, outputs)) == set()
    figures = W.exact_figures(W.exact_samples(outputs))
    assert figures["query_samples"] == 120
    assert 0 < figures["query_p50_us"] <= figures["query_p99_us"]


def _first(inputs, model, kahler):
    for i, (name, a) in enumerate(inputs.queries):
        if name == model and W.expected_query(name, a)["kahler"] == kahler:
            return i
    raise LookupError(model)


@pytest.mark.parametrize(
    "model, kahler, key, value, failed",
    [
        ("blowup-p2", True, "kahler", False, "cone decision"),
        ("blowup-p2", False, "rejected", False, "non-Kahler class rejected"),
        ("p1xp1", True, "volume", Fraction(-1), "volume"),
        ("cp1", True, "time", Fraction(99), "existence time"),
        ("p1xp1", True, "limit", (Fraction(1), Fraction(1)), "limiting class"),
        ("blowup-p2", True, "limit_volume", Fraction(-7), "limit volume"),
        ("product-ec", True, "null_labels", ("E-fiber",), "null locus"),
        ("cp1", True, "whole_space", False, "null locus"),
    ],
)
def test_exact_query_checks_fail_on_corrupted_answers(exact_case, model, kahler, key, value, failed):
    inputs, outputs = exact_case
    i = _first(inputs, model, kahler)
    answer, seconds = outputs.queries[i]
    bad = list(outputs.queries)
    bad[i] = (dict(answer, **{key: value}), seconds)
    corrupted = dataclasses.replace(outputs, queries=bad)
    assert failed in failing(W.exact_check(inputs, corrupted))


def test_exact_checks_fail_on_raised_query_crosscheck_and_trajectory(exact_case):
    inputs, outputs = exact_case
    raised = [("NotKahlerError: boom", 0.0)] + list(outputs.queries[1:])
    assert failing(W.exact_check(inputs, dataclasses.replace(outputs, queries=raised)))

    unequal = [dataclasses.replace(outputs.crosschecks[0], equal=False)] + outputs.crosschecks[1:]
    assert failing(W.exact_check(inputs, dataclasses.replace(outputs, crosschecks=unequal))) == {
        "crosscheck_T equal"
    }
    wrong = [dataclasses.replace(outputs.crosschecks[0], ansatz_time=Fraction(123))]
    assert "extinction time closed form" in failing(
        W.exact_check(inputs, dataclasses.replace(outputs, crosschecks=wrong + outputs.crosschecks[1:]))
    )
    traj = outputs.integrates[0]
    drifted = dataclasses.replace(traj, coeffs=traj.coeffs + 1e-9)
    assert failing(
        W.exact_check(inputs, dataclasses.replace(outputs, integrates=[drifted] + outputs.integrates[1:]))
    ) == {"trajectory matches the closed form to 1e-10"}


# -- seeded inputs -------------------------------------------------------------


def test_inputs_depend_on_the_seed_only():
    a, b, c = W.flow_n1_inputs(9, 0), W.flow_n1_inputs(9, 0), W.flow_n1_inputs(10, 0)
    assert np.array_equal(a.bg.f, b.bg.f) and not np.array_equal(a.bg.f, c.bg.f)
    assert abs(a.bg.f.mean()) < 1e-15
    assert W.exact_inputs(9, 0).queries == W.exact_inputs(9, 0).queries
    assert W.exact_inputs(9, 0).queries != W.exact_inputs(9, 1).queries
    g1, g2 = W.gh_inputs(9, 0), W.gh_inputs(9, 0)
    assert all(np.array_equal(p.X.D, q.X.D) for p, q in zip(g1.heuristic, g2.heuristic))
    assert np.array_equal(W.flow_n2_inputs(9, 0).phi0, W.flow_n2_inputs(9, 0).phi0)


# -- tracing -------------------------------------------------------------------


def _wrapped_attributes():
    import numpy.fft

    import krflab.maflow.solver as solver

    names = [(mf, "run"), (mf.TorusBackground, "fast_metric_fields"), (solver, "snapshot")]
    names += [(numpy.fft, n) for n in tracing.FFT_ENTRY_POINTS]
    names += [(gh, "gh_upper_bound"), (coh, "is_kahler"), (az, "integrate")]
    return {(id(o), a): getattr(o, a) for o, a in names}


def test_self_time_subtracts_direct_children():
    spans = [
        tracing.Span("run", 0, 100, -1, "r"),
        tracing.Span("rhs", 10, 40, 0, "r"),
        tracing.Span("fft", 15, 25, 1, "r"),
        tracing.Span("rhs", 50, 70, 0, "r"),
    ]
    assert tracing.self_times(spans) == [50, 20, 10, 20]


def test_wrappers_record_nested_spans_and_uninstall(exact_case):
    before = _wrapped_attributes()
    inputs, _ = exact_case
    small = dataclasses.replace(inputs, queries=inputs.queries[:30])
    tracer = tracing.Tracer()
    tracing.install_layer_wrappers(tracer)
    try:
        assert _wrapped_attributes() != before
        tracer.start("r0")
        W.exact_solve(small)
        tracer.stop()
        W.exact_solve(small)  # not recording: wrappers pass through
    finally:
        tracer.uninstall()
    assert _wrapped_attributes() == before
    names = {s.name for s in tracer.spans}
    assert {"coh.cone", "coh.maxtime", "coh.volume", "ansatz.crosscheck", "ansatz.integrate"} <= names
    assert {s.run for s in tracer.spans} == {"r0"}
    # limiting_class calls max_existence_time: the inner span has a parent
    limits = {i for i, s in enumerate(tracer.spans) if s.name == "coh.limit"}
    assert any(s.parent in limits for s in tracer.spans if s.name == "coh.maxtime")
    layers = tracing.layer_metrics(tracer.spans, {"r0"}, 0.0)
    assert layers["coh.cone_us"] > 0 and layers["maflow.rhs_calls"] == 0


def test_flow_spans_count_rhs_and_fft_calls(flow_n2_case):
    inputs, _ = flow_n2_case
    tracer = tracing.Tracer()
    tracing.install_layer_wrappers(tracer)
    try:
        for run in ("r0", "r1"):
            tracer.start(run)
            final, series = W.flow_solve(inputs)
            tracer.stop()
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer.spans, {"r0", "r1"}, final.t)
    # one rfftn and four irfftn per n=2 RHS, plus the snapshots' transforms
    assert layers["maflow.fft_calls"] > 5 * layers["maflow.rhs_calls"] > 0
    assert layers["maflow.snapshot_calls"] == len(series)
    assert layers["maflow.rhs_per_unit_t"] == layers["maflow.rhs_calls"] / final.t
    run_span = tracer.spans[0]
    assert 0 < layers["maflow.loop_self_s"] < (run_span.end - run_span.start) * 1e-9


# -- host-speed scaling ----------------------------------------------------------


def test_scaled_seconds_divides_by_the_neighbouring_references():
    ref = reference.REFERENCE_S
    # the host slows to half speed during the second round and stays there
    scaled = reference.scaled_seconds([1.0, 1.5, 2.0], [ref, ref, 2 * ref, 2 * ref])
    assert scaled == pytest.approx([1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        reference.scaled_seconds([1.0, 2.0], [ref, ref])


# -- runner contract -------------------------------------------------------------


def test_runner_prints_the_result_line_last():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "exact-queries", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1000
    assert set(result["metrics"]) == {"setup_s", "wall_scaled_s", "peak_rss_mb"}
    record = json.loads((BENCH / "out" / "exact-queries-seed2-trace0.json").read_text())
    assert record["environment"]["seed"] == 2 and record["environment"]["nproc"] >= 1
    assert record["environment"]["threads"]["OMP_NUM_THREADS"] == "1"
    assert len(record["reference"][0]) == len(record["rounds"][0]) + 1


def test_runner_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "exact-queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_runner_reports():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_scaled_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)
