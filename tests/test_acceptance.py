"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  On a 2-core machine the eight criteria take about 7 s, as
in `krflab verify`, and the whole file about 14 s with its fault-injection
tests; most of it is criterion 4's flow integrations.  The same checks
back `krflab verify`.
"""

import dataclasses
import types

import numpy as np
import pytest

import krflab.maflow as mf
import krflab.verify as V

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_NAMES = {idx: name for idx, name, _ in V.CRITERIA}


@pytest.fixture(scope="module")
def opts():
    return V.VerifyOptions(seed=0, flow_grid=64)


@pytest.mark.parametrize("index", sorted(_NAMES), ids=[_NAMES[i] for i in sorted(_NAMES)])
def test_criterion(index, opts):
    result = V.run_criterion(index, opts)
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {index} [{_NAMES[index]}]: {status} ({result.elapsed:.1f}s)")
    assert result.passed, "\n" + V.format_table([result])


def recorded_runs(monkeypatch):
    """Series of every ``maflow.run`` call that verify makes from now on."""
    series, real_run = [], mf.run

    def run(*args, **kwargs):
        final, out = real_run(*args, **kwargs)
        series.append(out)
        return final, out

    monkeypatch.setattr(V.mf, "run", run)
    return series


def test_criterion_2_zero_row_takes_1000_run_steps(monkeypatch):
    runs = recorded_runs(monkeypatch)
    result = V.run_criterion(2, V.VerifyOptions())
    zero = runs[0]
    assert zero.steps == 1000 and zero.rejected == 0 and len(zero) == 2
    assert zero.termination == "t_end"
    assert result.rows[0].got == "0.000e+00" and result.rows[0].passed


def test_criterion_2_zero_row_fails_on_a_biased_density(monkeypatch):
    # the potential then drifts at 1e-9 per unit time: about 6e-11 over the row
    biased = property(lambda bg: bg._log_density + 1e-9)
    monkeypatch.setattr(mf.TorusBackground, "log_density", biased)
    row = V.run_criterion(2, V.VerifyOptions()).rows[0]
    assert not row.passed
    assert np.isclose(float(row.got), 1000 * 0.25 / 64**2 * 1e-9, rtol=1e-2)


def test_criterion_3_decay_row_fails_on_a_wrong_rate_or_no_fit(monkeypatch):
    # the decay row reads the fit from maflow.estimates, where the flow's row reads it too
    for fit, got in (((0.5, 0.0), "0.5000"), (None, "no fit")):
        monkeypatch.setattr(mf.estimates, "fit_decay_rate", lambda ts, values, fit=fit: fit)
        rows = V.run_criterion(3, V.VerifyOptions(flow_grid=16)).rows
        assert [r.passed for r in rows] == [True, True, False]
        assert rows[2].check == "decay rate vs linearized oracle" and rows[2].got == got


def test_criterion_3_convergence_and_residual_rows_fail_on_injected_faults(monkeypatch):
    real_run = mf.run

    def unconverged(*args, **kwargs):
        final, series = real_run(*args, **kwargs)
        series.converged, series.termination = False, "t_end"
        return final, series

    def residual(bg, state):
        return np.full(bg.shape, 1e-6)

    for name, fake, passed in (("run", unconverged, [False, True, True]),
                               ("ma_rhs", residual, [True, False, True])):
        monkeypatch.undo()
        monkeypatch.setattr(V.mf, name, fake)
        rows = V.run_criterion(3, V.VerifyOptions(flow_grid=16)).rows
        assert [r.passed for r in rows] == passed
    assert rows[1].check == "stationary-equation residual at the final state"
    assert rows[1].got == "1.000e-06" and rows[1].margin < 0


def decaying_series():
    """A converged series: inf R falls by 5e-5, sup|phidot| decays at rate 1.04."""
    series = mf.DiagnosticsSeries(converged=True, termination="converged")
    for t in np.linspace(0.0, 20.0, 300):
        record = dict.fromkeys(mf.DIAGNOSTIC_COLUMNS, 1.0)
        record.update(t=t, inf_R=-2.5e-6 * t, sup_phidot=0.01 * np.exp(-1.04 * t))
        series.append(mf.DiagnosticsRecord(**record))
    return series


def test_gate_and_flow_rows_read_one_value_and_bound(monkeypatch):
    series = decaying_series()
    final = types.SimpleNamespace(t=20.0)
    monkeypatch.setattr(V.mf, "run", lambda bg, cfg, phi0=None: (final, series))
    monkeypatch.setattr(V.mf, "ma_rhs", lambda bg, state: np.zeros(1))
    c3_decay = V.run_criterion(3, V.VerifyOptions(flow_grid=16)).rows[2]
    c4_floor = V.run_criterion(4, V.VerifyOptions(flow_grid=16)).rows[0]
    bg = mf.TorusBackground(n=1, N=16, g0=[[1.0]])

    def flow_row(mode, check):
        rows = mf.estimate_report(series, mf.RunConfig(mode=mode), bg).rows
        return next(row for row in rows if row.check == check)

    floor = flow_row(mf.UNNORMALIZED, "scalar-floor")
    decay = flow_row(mf.NORMALIZED, "normalized-decay")
    assert (c4_floor.value, c4_floor.bound) == (floor.value, floor.bound)
    assert (c3_decay.value, c3_decay.bound) == (decay.value, decay.bound)
    assert np.isclose(floor.value, 5e-5) and np.isclose(decay.value, 0.04)
    assert floor.passed and decay.passed


def test_criterion_4_floor_row_fails_on_a_drop_of_2e_4(monkeypatch):
    # run 2's inf R drops by 2e-4 and run 5's by 5e-5; the flow itself never runs
    drops = iter([0.0, 2e-4, 0.0, 0.0, 5e-5, 0.0])

    def run(bg, cfg, phi0=None):
        inf_r = np.array([1.0, 1.0 - next(drops)])
        return None, types.SimpleNamespace(column=lambda name: inf_r)

    monkeypatch.setattr(V.mf, "run", run)
    rows = V.run_criterion(4, V.VerifyOptions()).rows
    assert [r.passed for r in rows] == [True, False, True, True, True, True]
    assert rows[1].check == "run 2 (n=1, N=64): inf R floor" and rows[1].got == "2.000e-04"


def _criterion_4_runs(monkeypatch):
    """(background, config, phi0) of each of c4's runs, recorded without running the flow."""
    runs = []

    def run(bg, cfg, phi0=None):
        runs.append((bg, cfg, phi0))
        return None, types.SimpleNamespace(column=lambda name: np.ones(2))

    with monkeypatch.context() as patch:
        patch.setattr(V.mf, "run", run)
        V.run_criterion(4, V.VerifyOptions())
    return runs


@pytest.mark.parametrize(
    "run, g0, phi0, record_every, scale",
    [
        # phi0 = 0.02 cos 2 pi x1: the flow stays a function of x1 alone
        (4, 1.0, lambda x: 0.02 * np.cos(2 * np.pi * x), 20, 1.0),
        # phi0 = 0.015 sin 2 pi (y1 + x2): a function of y1 + x2 alone, whose
        # reduction has g0 = 1/2 and half the n=2 min_eig and volume
        (5, 0.5, lambda x: 0.015 * np.sin(2 * np.pi * x), 40, 2.0),
    ],
    ids=["run 4", "run 5"],
)
def test_criterion_4_n2_run_matches_its_n1_reduction(
    monkeypatch, run, g0, phi0, record_every, scale
):
    bg, cfg, phi = _criterion_4_runs(monkeypatch)[run - 1]
    assert bg.n == 2 and cfg.t_end == 0.4
    _, wide = mf.run(bg, cfg, phi0=phi)
    line = mf.TorusBackground(n=1, N=bg.N, g0=[[g0]])
    x, _ = line.coordinates()
    _, narrow = mf.run(line, dataclasses.replace(cfg, record_every=record_every), phi0=phi0(x))
    counts = (wide.steps, wide.rejected, wide.rhs_evals, len(wide.rows()))
    assert counts == (narrow.steps, narrow.rejected, narrow.rhs_evals, len(narrow.rows()))

    def gap(name, factor=1.0, offset=0.0):
        reduced = factor * np.asarray(narrow.column(name)) + offset
        return np.abs(np.asarray(wide.column(name)) - reduced).max()

    for name in ("t", "sup_phi", "sup_phidot", "inf_R", "sup_R", "energy"):
        assert gap(name) <= 1e-10, name
    assert gap("sup_trace", offset=1.0) <= 1e-10
    assert gap("min_eig", factor=scale) <= 1e-10
    assert gap("volume", factor=scale) <= 1e-10


def test_criterion_4_run_6_is_two_decoupled_n1_flows(monkeypatch):
    # phi0 = 0.01 cos 2 pi x1 + 0.008 cos 2 pi (x2 - y2), a z1 term plus a z2
    # term: the flow keeps phi a sum, so H_01 stays zero and det factors.
    # Measured: a non-additive part of 1.6e-18, sup |Re H_01| 5.8e-17 and
    # sup |Im H_01| 4.9e-17
    bg, cfg, phi = _criterion_4_runs(monkeypatch)[5]
    assert bg.n == 2 and cfg.t_end == 0.4
    final, series = mf.run(bg, cfg, phi0=phi)
    assert series.termination == "t_end"
    phi = final.phi
    additive = phi.mean(axis=(2, 3), keepdims=True) + phi.mean(axis=(0, 1), keepdims=True)
    assert np.abs(phi - additive + phi.mean()).max() <= 1e-12
    h01 = bg.complex_hessian(phi)[..., 0, 1]
    assert np.abs(h01.real).max() <= 1e-12 and np.abs(h01.imag).max() <= 1e-12


def test_criterion_5_gap_row_fails_on_a_smaller_constant(monkeypatch):
    # matrix_gap_check reads gap_constant from its own module
    real = mf.estimates.gap_constant
    monkeypatch.setattr(mf.estimates, "gap_constant", lambda n: real(n) * (0.5 if n == 2 else 1))
    rows = V.run_criterion(5, V.VerifyOptions()).rows
    assert [r.passed for r in rows] == [True, True, False, True, True, True]
    assert rows[2].check == "n=2: ||A-Id||^2 <= 5*eps over 100000 samples"
    assert rows[2].got != "0 violations" and rows[2].value > 0


def test_criterion_5_counts_the_violations_of_matrix_gap_check(monkeypatch):
    # an n=2 constant that puts c5's sample of largest lhs/eps 3e-12 over its bound
    opts = V.VerifyOptions()
    rng = np.random.default_rng(opts.seed + 5)
    A, eps = [V.sample_gap_matrices(rng, 10**5, n) for n in (1, 2, 3)][1]
    lhs = mf.matrix_gap_check(A, eps).lhs
    k = np.argmax(lhs / eps)
    low, real = (lhs[k] - 3e-12) / eps[k], mf.estimates.gap_constant
    monkeypatch.setattr(mf.estimates, "gap_constant", lambda n: low if n == 2 else real(n))
    chk = mf.matrix_gap_check(A, eps)
    assert chk.violations > 0 and not chk.passed
    rows = V.run_criterion(5, opts).rows
    assert [r.passed for r in rows] == [True, True, False, True, True, True]
    assert rows[2].value == chk.violations


def test_criterion_8_monotone_row_fails_on_an_increasing_series(monkeypatch):
    eps = np.linspace(0.5, 0.01, 21)
    eps[8] = eps[7] + 2e-9  # over the 1e-9 slack
    monkeypatch.setattr(
        V.gh, "collapse_series", lambda ts, nb, nf: types.SimpleNamespace(epsilons=eps)
    )
    rows = V.run_criterion(8, V.VerifyOptions()).rows
    assert [r.passed for r in rows] == [False, True, True]
    assert rows[0].check == "distance bound nonincreasing in t" and rows[0].got == "increases"


def test_options_build_the_builtin_catalogue_once(monkeypatch):
    calls, real = [], V.coh_models.builtin_models
    monkeypatch.setattr(V.coh_models, "builtin_models", lambda: calls.append(1) or real())
    V.run_all(V.VerifyOptions(), only=[1, 7])
    assert len(calls) == 1
