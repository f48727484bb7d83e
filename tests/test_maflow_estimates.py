import numpy as np
import pytest

import krflab.maflow as mf
from krflab.maflow.estimates import R_FLOOR_TOL
from krflab.maflow.solver import DiagnosticsRecord, DiagnosticsSeries


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


def test_stationary_series_all_pass():
    series = synthetic_series(np.linspace(0, 1, 20))
    report = mf.estimate_report(series)
    assert report.all_passed
    names = [v.name for v in report.verdicts]
    assert names == ["potential-bound", "scalar-floor", "metric-equivalence"]


def test_injected_scalar_dip_fails_floor():
    ts = np.linspace(0, 1, 20)
    inf_r = np.zeros(20)
    inf_r[12] = -5e-4  # corruption below the 1e-4 allowance
    report = mf.estimate_report(synthetic_series(ts, inf_r=inf_r))
    verdicts = {v.name: v.passed for v in report.verdicts}
    assert not verdicts["scalar-floor"]
    assert not report.all_passed


def test_scalar_floor_verdict_reads_the_drop_it_prints():
    # the drop prints as 1.000e-04 but is 1.0000000000000021e-4, above R_FLOOR_TOL
    inf_r = [-3.656357558875988, -3.6564575588759882]
    report = mf.estimate_report(synthetic_series([0.0, 1.0], inf_r=inf_r))
    floor = next(v for v in report.verdicts if v.name == "scalar-floor")
    assert "(drop 1.000e-04)" in floor.detail
    assert floor.passed is False
    for inf_r, passed in (([0.0, -R_FLOOR_TOL], True), ([0.0, float("nan")], False)):
        report = mf.estimate_report(synthetic_series([0.0, 1.0], inf_r=inf_r))
        assert report.verdicts[1].name == "scalar-floor"
        assert report.verdicts[1].passed is passed


def test_blowup_trend_fails_potential_bound():
    ts = np.linspace(0, 1, 40)
    sup_phi = np.exp(5 * ts)  # still growing at the end
    report = mf.estimate_report(synthetic_series(ts, sup_phi=sup_phi))
    verdicts = {v.name: v.passed for v in report.verdicts}
    assert not verdicts["potential-bound"]


def test_metric_floor_verdict():
    ts = np.linspace(0, 1, 20)
    min_eig = np.full(20, 0.5)
    min_eig[7] = 1e-9
    report = mf.estimate_report(synthetic_series(ts, min_eig=min_eig))
    verdicts = {v.name: v.passed for v in report.verdicts}
    assert not verdicts["metric-equivalence"]


def test_decay_fit_on_synthetic_exponential():
    ts = np.linspace(0, 20, 300)
    vals = 3.0 * np.exp(-1.7 * ts)
    rate, amp = mf.fit_decay_rate(ts, vals, window=(1e-9, 1e-2))
    assert abs(rate - 1.7) < 1e-9
    assert abs(amp - 3.0) < 1e-6


def test_normalized_decay_verdict_with_oracle():
    ts = np.linspace(0, 20, 300)
    mu = 1.0
    series = synthetic_series(ts, sup_phidot=0.01 * np.exp(-mu * ts))
    report = mf.estimate_report(series, normalized_cy=True)
    verdicts = {v.name: v.passed for v in report.verdicts}
    assert verdicts["normalized-decay"]
    # a decay at rate 2 misses the oracle rate 1
    fast = synthetic_series(ts, sup_phidot=0.01 * np.exp(-2.0 * ts))
    report = mf.estimate_report(fast, normalized_cy=True)
    verdicts = {v.name: v.passed for v in report.verdicts}
    assert not verdicts["normalized-decay"]


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        mf.estimate_report(DiagnosticsSeries())


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
