"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion (the whole gate takes a few minutes; criteria 3 and 4 carry
real flow integrations).  The same checks back `krflab verify`.
"""

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
