import json
import math

import numpy as np
import pytest

import krflab.maflow as mf
import krflab.serialize as ser
from krflab.maflow.estimates import R_FLOOR_TOL
from krflab.maflow.solver import DiagnosticsRecord, DiagnosticsSeries

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def synthetic_series(ts, sup_phidot=None, inf_r=None, min_eig=None, sup_phi=None):
    series = DiagnosticsSeries()
    for i, t in enumerate(ts):
        series.append(
            DiagnosticsRecord(
                t=float(t),
                sup_phi=float(sup_phi[i]) if sup_phi is not None else 0.0,
                sup_phidot=float(sup_phidot[i]) if sup_phidot is not None else 0.0,
                min_eig=float(min_eig[i]) if min_eig is not None else 1.0,
                inf_R=float(inf_r[i]) if inf_r is not None else 0.0,
                sup_R=0.0,
                sup_trace=1.0,
                volume=1.0,
                energy=0.0,
            )
        )
    return series


def report(series, mode=mf.UNNORMALIZED, f=None):
    """estimate_report of a run of ``mode`` on a flat (or ``f``-twisted) background."""
    bg = mf.TorusBackground(n=1, N=8, g0=[[1.0]], f=f)
    return mf.estimate_report(series, mf.RunConfig(mode=mode), bg)


def rows_by_check(checks):
    return {row.check: row for row in checks.rows}


def test_stationary_series_all_pass():
    series = synthetic_series(np.linspace(0, 1, 20))
    checks = report(series)
    assert checks.passed
    names = [row.check for row in checks.rows]
    assert names == ["potential-bound", "scalar-floor", "metric-equivalence"]


def test_rows_that_apply_to_a_run():
    # the floor only on an untwisted unnormalized run, the decay only on a
    # converged normalized one
    ts = np.linspace(0, 20, 300)
    series = synthetic_series(ts, sup_phidot=0.01 * np.exp(-ts))
    twist = np.full((8, 8), 0.1)
    for mode, f, converged, names in (
        (mf.UNNORMALIZED, None, False, ["potential-bound", "scalar-floor", "metric-equivalence"]),
        (mf.UNNORMALIZED, twist, False, ["potential-bound", "metric-equivalence"]),
        (mf.NORMALIZED, None, False, ["potential-bound", "metric-equivalence"]),
        (mf.NORMALIZED, twist, True,
         ["potential-bound", "metric-equivalence", "normalized-decay"]),
    ):
        series.converged = converged
        assert [row.check for row in report(series, mode, f).rows] == names


def test_injected_scalar_dip_fails_floor():
    ts = np.linspace(0, 1, 20)
    inf_r = np.zeros(20)
    inf_r[12] = -5e-4  # corruption below the 1e-4 allowance
    checks = report(synthetic_series(ts, inf_r=inf_r))
    assert not rows_by_check(checks)["scalar-floor"].passed
    assert not checks.passed


def test_scalar_floor_verdict_reads_the_drop_it_prints():
    # the drop prints as 1.000e-04 but is 1.0000000000000021e-4, above R_FLOOR_TOL
    inf_r = [-3.656357558875988, -3.6564575588759882]
    floor = rows_by_check(report(synthetic_series([0.0, 1.0], inf_r=inf_r)))["scalar-floor"]
    assert floor.got == "1.000e-04"
    assert floor.passed is False
    for inf_r, passed in (([0.0, -float(R_FLOOR_TOL)], True), ([0.0, float("nan")], False)):
        checks = report(synthetic_series([0.0, 1.0], inf_r=inf_r))
        assert checks.rows[1].check == "scalar-floor"
        assert checks.rows[1].passed is passed


def test_blowup_trend_fails_potential_bound():
    ts = np.linspace(0, 1, 40)
    sup_phi = np.exp(5 * ts)  # still growing at the end
    row = rows_by_check(report(synthetic_series(ts, sup_phi=sup_phi)))["potential-bound"]
    assert not row.passed and row.margin < 0


def test_metric_floor_verdict():
    ts = np.linspace(0, 1, 20)
    min_eig = np.full(20, 0.5)
    min_eig[7] = 1e-9
    row = rows_by_check(report(synthetic_series(ts, min_eig=min_eig)))["metric-equivalence"]
    assert not row.passed
    # the row shows the minimum it read against the floor, not a ">= floor" claim
    assert row.got == "1e-09" and row.bound == mf.EPS_POS and row.margin < 0


def test_decay_fit_on_synthetic_exponential():
    ts = np.linspace(0, 20, 300)
    vals = 3.0 * np.exp(-1.7 * ts)
    rate, amp = mf.fit_decay_rate(ts, vals, window=(1e-9, 1e-2))
    assert abs(rate - 1.7) < 1e-9
    assert abs(amp - 3.0) < 1e-6


def converged(series):
    series.converged = True
    return series


def test_normalized_decay_verdict_with_oracle():
    ts = np.linspace(0, 20, 300)
    mu = 1.0
    series = converged(synthetic_series(ts, sup_phidot=0.01 * np.exp(-mu * ts)))
    assert rows_by_check(report(series, mf.NORMALIZED))["normalized-decay"].passed
    # a decay at rate 2 misses the oracle rate 1
    fast = converged(synthetic_series(ts, sup_phidot=0.01 * np.exp(-2.0 * ts)))
    assert not rows_by_check(report(fast, mf.NORMALIZED))["normalized-decay"].passed


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        report(DiagnosticsSeries())


def refuse(constant):
    raise ValueError(f"non-JSON number {constant}")


def nan_at(count, index):
    values = np.ones(count)
    values[index] = np.nan
    return values


@pytest.mark.parametrize(
    "mode, series, check",
    [
        (mf.UNNORMALIZED, lambda ts: synthetic_series(ts, sup_phi=nan_at(20, 3)),
         "potential-bound"),
        (mf.UNNORMALIZED, lambda ts: synthetic_series(ts, sup_phi=nan_at(20, 18)),
         "potential-bound"),
        (mf.UNNORMALIZED, lambda ts: synthetic_series(ts, min_eig=nan_at(20, 5)),
         "metric-equivalence"),
        (mf.UNNORMALIZED, lambda ts: synthetic_series(ts, inf_r=nan_at(20, 9)), "scalar-floor"),
        # sup|phidot| of 0 throughout leaves no sample in the fit window
        (mf.NORMALIZED, lambda ts: converged(synthetic_series(ts)), "normalized-decay"),
    ],
    ids=["sup_phi-head", "sup_phi-tail", "min_eig", "inf_R", "no-fit"],
)
def test_non_finite_input_fails_its_row_with_a_null_margin(tmp_path, mode, series, check):
    checks = report(series(np.linspace(0, 1, 20)), mode)
    row = rows_by_check(checks)[check]
    assert not row.passed and not checks.passed
    assert math.isnan(row.margin)
    # written the way krflab flow writes diagnostics.json, and read back strictly
    ser.write_json(tmp_path / "diagnostics.json", {"checks": [r.payload() for r in checks.rows]})
    written = json.loads((tmp_path / "diagnostics.json").read_text(), parse_constant=refuse)
    entry = next(e for e in written["checks"] if e["check"] == check)
    assert entry["passed"] is False and entry["margin"] is None


# ---------------------------------------------------------------------------
# near-identity gap bound
# ---------------------------------------------------------------------------


def random_unitaries(rng, count, n):
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(z)
    phase = r.diagonal(axis1=-2, axis2=-1).copy()
    phase /= np.abs(phase)
    return q * phase[:, None, :]


def sample_gap_matrices(rng, count, n):
    """Hermitian PD stacks near the identity with their tightest eps."""
    delta = rng.uniform(0.0, 0.3, size=(count, 1))
    eigs = 1.0 + delta * rng.uniform(-1.0, 1.0, size=(count, n))
    q = random_unitaries(rng, count, n)
    A = (q * eigs[:, None, :]) @ q.conj().swapaxes(-1, -2)
    A = 0.5 * (A + A.conj().swapaxes(-1, -2))
    tr = eigs.sum(axis=1)
    det = eigs.prod(axis=1)
    eps = np.maximum(np.maximum(tr - n, 1.0 - det), 1e-12) * (1 + 1e-9)
    return A, eps


def test_gap_check_identity():
    chk = mf.matrix_gap_check(np.eye(3), 0.5)
    assert chk.passed and chk.chain_ok
    assert np.allclose(chk.lhs, 0.0)


def test_gap_check_one_dimensional_hand_case():
    # A = (1 - e): lhs = e^2, bound = C(1) e = e, and e^2 <= e for e < 1
    for e in (0.1, 0.5, 0.9):
        chk = mf.matrix_gap_check(np.array([[1.0 - e]]), e)
        assert abs(float(chk.lhs) - e**2) < 1e-12
        assert float(chk.bound) == mf.gap_constant(1) * e
        assert chk.passed


def test_gap_check_balanced_diagonal():
    # diag(1+d, 1-d+d^2/(1+d)) has det exactly 1; lhs is about 2 d^2
    d = 0.05
    second = (1.0 - d) + d * d / (1.0 + d)
    A = np.diag([1.0 + d, second])
    eps = max(A.trace() - 2, 1e-9) * (1 + 1e-12)
    chk = mf.matrix_gap_check(A, eps)
    assert chk.passed
    assert abs(float(chk.lhs) - 2 * d * d) < d**3 * 10


def test_gap_check_precondition_enforced():
    with pytest.raises(ValueError):
        mf.matrix_gap_check(np.diag([2.0, 1.0]), 0.5)  # trace too large
    with pytest.raises(ValueError):
        mf.matrix_gap_check(np.eye(2), 1.5)  # eps out of range
    with pytest.raises(ValueError):
        mf.matrix_gap_check(np.diag([1.0, -1.0]), 0.5)  # not PD


def test_gap_sampling_oracle_no_counterexamples():
    rng = np.random.default_rng(101)
    for n in (1, 2, 3):
        A, eps = sample_gap_matrices(rng, 10**4, n)
        chk = mf.matrix_gap_check(A, eps)
        assert chk.chain_ok
        assert chk.passed
        assert np.all(chk.lhs <= chk.bound + 1e-12)


# ---------------------------------------------------------------------------
# trace inequalities
# ---------------------------------------------------------------------------


def test_trace_check_equal_matrices():
    for n in (1, 2, 3):
        A = np.eye(n) * 1.7
        chk = mf.trace_inequalities_check(A, A)
        assert chk.passed
        # eigenvalues of B^{-1}A are all 1
        assert np.allclose(chk.trace_lhs, n)


def test_trace_check_two_by_two_hand_case():
    A = np.diag([2.0, 0.5])
    B = np.eye(2)
    chk = mf.trace_inequalities_check(A, B)
    assert chk.passed
    assert abs(float(chk.trace_lhs) - 2.5) < 1e-12
    assert abs(float(chk.trace_rhs) - 2.5) < 1e-12  # equality pattern at det 1


def test_trace_check_rejects_non_pd():
    with pytest.raises((ValueError, np.linalg.LinAlgError)):
        mf.trace_inequalities_check(np.diag([1.0, -2.0]), np.eye(2))


def test_trace_sampling_oracle():
    rng = np.random.default_rng(707)
    for n in (1, 2, 3):
        count = 10**5
        q1 = random_unitaries(rng, count, n)
        q2 = random_unitaries(rng, count, n)
        e1 = rng.uniform(0.2, 5.0, size=(count, n))
        e2 = rng.uniform(0.2, 5.0, size=(count, n))
        A = (q1 * e1[:, None, :]) @ q1.conj().swapaxes(-1, -2)
        B = (q2 * e2[:, None, :]) @ q2.conj().swapaxes(-1, -2)
        A = 0.5 * (A + A.conj().swapaxes(-1, -2))
        B = 0.5 * (B + B.conj().swapaxes(-1, -2))
        chk = mf.trace_inequalities_check(A, B)
        assert chk.passed


def test_series_timestamps_strictly_increasing():
    series = synthetic_series([0.0, 1.0])
    with pytest.raises(ValueError):
        series.append(series.records[-1])
