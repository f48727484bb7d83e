"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion (the whole gate takes a few minutes; criteria 3 and 4 carry
real flow integrations).  The same checks back `krflab verify`.
"""

import types

import numpy as np
import pytest

import krflab.maflow as mf
import krflab.verify as V

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


def test_criterion_5_gap_row_fails_on_a_smaller_constant(monkeypatch):
    # matrix_gap_check reads gap_constant from its own module
    real = mf.estimates.gap_constant
    monkeypatch.setattr(mf.estimates, "gap_constant", lambda n: real(n) * (0.5 if n == 2 else 1))
    rows = V.run_criterion(5, V.VerifyOptions()).rows
    assert [r.passed for r in rows] == [True, True, False, True, True, True]
    assert rows[2].check == "n=2: ||A-Id||^2 <= 5*eps over 100000 samples"
    assert rows[2].got != "0 violations" and rows[2].value > 0


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
