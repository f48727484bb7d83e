import mpmath
import numpy as np
import pytest

import krflab.maflow as mf
import krflab.maflow.solver as solver
from krflab.maflow.background import field_from_modes
from krflab.maflow.solver import _cfl_bound
from oracles import ricci_and_scalar, rk4_step, solve_stationary_normalized

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def background(n=1, N=32, g0=None, f=None):
    if g0 is None:
        g0 = np.eye(n)
    return mf.TorusBackground(n=n, N=N, g0=g0, f=f)


# ---------------------------------------------------------------------------
# ma_rhs
# ---------------------------------------------------------------------------


def test_rhs_zero_at_flat_reference():
    bg = background()
    state = mf.initial_state(bg)
    assert np.abs(mf.ma_rhs(bg, state)).max() == 0.0


def test_rhs_closed_form_single_mode():
    # g0 = 1/2: metric 1/2 - pi^2 A cos, rhs = log(1 - 2 pi^2 A cos(2 pi x))
    A = 0.002
    bg = background(g0=[[0.5]])
    x, _ = bg.coordinates()
    state = mf.initial_state(bg, A * np.cos(2 * np.pi * x))
    got = mf.ma_rhs(bg, state)
    expected = np.log(1.0 - 2.0 * np.pi**2 * A * np.cos(2 * np.pi * x))
    assert np.abs(got - expected).max() < 1e-13


def test_rhs_normalized_constant_shift():
    bg = background()
    state = mf.initial_state(bg, np.full(bg.shape, 0.7), mode=mf.NORMALIZED)
    got = mf.ma_rhs(bg, state)
    assert np.abs(got + 0.7).max() < 1e-14


def test_rhs_admissibility_violation_reports_location():
    bg = background(N=16)
    x, _ = bg.coordinates()
    # amplitude large enough that 1 - pi^2 A < 0 at x = 0
    state = mf.initial_state(bg, 0.2 * np.cos(2 * np.pi * x))
    with pytest.raises(mf.AdmissibilityError) as err:
        mf.ma_rhs(bg, state)
    assert err.value.location[0] == 0  # metric minimum sits at the crest
    assert err.value.min_eig < mf.EPS_POS


# ---------------------------------------------------------------------------
# the RK4 oracle
# ---------------------------------------------------------------------------


def test_stationary_point_is_exact_fixed_point():
    bg = background(N=64)
    state = mf.initial_state(bg)
    dt = mf.current_cfl_bound(bg, state)
    for _ in range(25):
        state = rk4_step(bg, state, dt)
    assert np.abs(state.phi).max() == 0.0


def test_step_matches_euler_to_second_order():
    bg = background()
    x, _ = bg.coordinates()
    phi0 = 0.05 * np.cos(2 * np.pi * x)
    state = mf.initial_state(bg, phi0)
    rhs0 = mf.ma_rhs(bg, state)
    for dt in (1e-5, 2e-5):
        new = rk4_step(bg, state, dt)
        euler = phi0 + dt * rhs0
        # RK4 - Euler = O(dt^2), with an O(1) curvature constant
        assert np.abs(new.phi - euler).max() < 100 * dt**2


def test_normalized_constant_mode_decouples_to_scalar_ode():
    # phi identically 1 evolves by phi' = -phi, so phi(t) = exp(-t)
    bg = background(N=16)
    cfg = mf.RunConfig(mode=mf.NORMALIZED, t_end=2.0, record_every=64)
    final, _ = mf.run(bg, cfg, phi0=np.ones(bg.shape))
    assert np.abs(final.phi - np.exp(-2.0)).max() < 1e-10


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_stationary_run_constant_diagnostics():
    bg = background(N=16)
    cfg = mf.RunConfig(t_end=0.5, record_every=16)
    final, series = mf.run(bg, cfg)
    assert np.abs(final.phi).max() == 0.0
    for name in ("sup_phi", "sup_phidot", "inf_R", "sup_R"):
        assert np.abs(series.column(name)).max() == 0.0
    assert np.allclose(series.column("volume"), 1.0, atol=0)
    assert series.termination == "t_end"


def test_unnormalized_perturbation_decays_at_heat_rate():
    bg = background(N=32)
    x, _ = bg.coordinates()
    cfg = mf.RunConfig(t_end=0.9, record_every=40)
    final, series = mf.run(bg, cfg, phi0=0.02 * np.cos(2 * np.pi * x))
    energy = series.column("energy")
    assert energy[-1] < energy[0] * 1e-3
    fit = mf.fit_decay_rate(
        series.column("t"), energy, window=(energy[0] * 1e-3, energy[0] * 0.5)
    )
    assert fit is not None
    rate, _ = fit
    lowest = np.pi**2  # heat rate of the (1,0) mode on g0 = 1
    assert abs(rate - lowest) < 0.1 * lowest


def test_volume_exactly_conserved_in_unnormalized_mode():
    # the grid integral of det(g0 + H) is conserved to round-off because the
    # derivative terms integrate to zero mode by mode
    bg = background(N=32)
    x, y = bg.coordinates()
    phi0 = 0.02 * np.cos(2 * np.pi * x) + 0.01 * np.sin(2 * np.pi * y)
    cfg = mf.RunConfig(t_end=0.4, record_every=50)
    _, series = mf.run(bg, cfg, phi0=phi0)
    vol = series.column("volume")
    assert np.abs(vol - vol[0]).max() < 1e-12


def test_scalar_floor_along_unnormalized_runs():
    bg = background(N=32)
    x, y = bg.coordinates()
    for phi0 in (
        0.015 * np.cos(2 * np.pi * x),
        0.01 * np.sin(2 * np.pi * (x + y)),
        0.008 * (np.cos(2 * np.pi * x) + np.sin(4 * np.pi * y)),
    ):
        cfg = mf.RunConfig(t_end=0.4, record_every=25)
        _, series = mf.run(bg, cfg, phi0=phi0)
        inf_r = series.column("inf_R")
        assert inf_r.min() >= inf_r[0] - 1e-4


def test_comparison_principle_preserves_ordering():
    bg = background(N=16)
    x, _ = bg.coordinates()
    lo = mf.initial_state(bg, 0.01 * np.cos(2 * np.pi * x), mode=mf.NORMALIZED)
    hi = mf.initial_state(
        bg,
        0.01 * np.cos(2 * np.pi * x) + 0.005 * (1.2 + np.sin(2 * np.pi * x)),
        mode=mf.NORMALIZED,
    )
    assert (hi.phi >= lo.phi).all()
    for _ in range(300):
        dt = min(mf.current_cfl_bound(bg, lo), mf.current_cfl_bound(bg, hi))
        lo = rk4_step(bg, lo, dt)
        hi = rk4_step(bg, hi, dt)
        assert float((hi.phi - lo.phi).min()) > -1e-12


def test_resolution_convergence_spectral():
    results = {}
    for N in (32, 64):
        bg = background(N=N)
        x, _ = bg.coordinates()
        cfg = mf.RunConfig(t_end=0.15, record_every=1000)
        final, _ = mf.run(bg, cfg, phi0=0.02 * np.cos(2 * np.pi * x))
        results[N] = float(np.abs(final.phi).max())
    assert abs(results[32] - results[64]) < 1e-8


def test_twisted_normalized_run_converges_to_stationary_solution():
    # small desk copy of the convergence acceptance criterion (which runs N=64)
    f = field_from_modes(1, 16, [((1, 0), 0.05, 0.0), ((0, 1), 0.0, 0.03)])
    bg = mf.TorusBackground(n=1, N=16, g0=np.eye(1), f=f)
    cfg = mf.RunConfig(mode=mf.NORMALIZED, t_end=25.0, record_every=100)
    final, series = mf.run(bg, cfg)
    assert series.converged and series.termination == "converged"
    # independent elliptic oracle
    target = solve_stationary_normalized(bg)
    assert np.abs(final.phi - target).max() < 1e-6
    # residual of the stationary equation at the final state
    residual = mf.ma_rhs(bg, final)
    assert np.abs(residual).max() < 1e-8


def test_spectral_tail_abort_on_rough_data():
    bg = background(N=16)
    rng = np.random.default_rng(5)
    rough = 1e-4 * rng.standard_normal(bg.shape)  # white noise: fat tail
    cfg = mf.RunConfig(t_end=0.2, record_every=1)
    with pytest.raises(mf.SpectralTailError):
        mf.run(bg, cfg, phi0=rough)


def test_end_of_interval_remainder_is_not_a_stall():
    # ten steps of 1e-4 leave a 3e-13 remainder, far below the stall step
    bg = background(N=16)
    cfg = mf.RunConfig(dt=1e-4, t_end=10e-4 + 3e-13)
    final, series = mf.run(bg, cfg)
    assert series.termination == "t_end"
    assert abs(final.t - cfg.t_end) < 1e-14


def test_non_finite_potential_is_not_admissible():
    bg = background(N=16)
    phi0 = np.zeros(bg.shape)
    phi0[3, 5] = np.nan
    with pytest.raises(mf.AdmissibilityError, match="non-finite"):
        mf.run(bg, mf.RunConfig(t_end=0.01), phi0=phi0)
    with pytest.raises(mf.AdmissibilityError, match="non-finite"):
        mf.snapshot(bg, mf.initial_state(bg, phi0))
    with pytest.raises(mf.AdmissibilityError, match="non-finite"):
        mf.ma_rhs(bg, mf.initial_state(bg, phi0))


@pytest.mark.parametrize(
    "field, value",
    [("dt", float("nan")), ("dt", 0.0), ("dt", -1e-3), ("t_end", float("nan")),
     ("eps_pos", float("nan"))],
)
def test_run_config_rejects_non_positive_values(field, value):
    # NaN passed "<= 0" checks: a NaN dt or floor then failed as a positivity
    # loss, and a NaN t_end ended the run at t = 0 as if it had reached t_end
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        mf.RunConfig(**{field: value})


def test_cfl_bound_of_non_finite_potential_is_not_admissible():
    bg = background(N=16)
    phi0 = np.zeros(bg.shape)
    phi0[3, 5] = np.nan
    with pytest.raises(mf.AdmissibilityError, match="non-finite"):
        mf.current_cfl_bound(bg, mf.initial_state(bg, phi0))


def rk4_reference(bg, phi0, mode, t_end):
    """A loop of RK4 oracle steps at the CFL bound, landing on t_end."""
    state = mf.initial_state(bg, phi0, mode)
    while state.t < t_end:
        dt = min(mf.current_cfl_bound(bg, state), t_end - state.t)
        state = rk4_step(bg, state, dt)
    return state


@pytest.mark.parametrize(
    "n, N, g0, mode",
    [
        (1, 16, [[2.0]], mf.NORMALIZED),
        (2, 8, [[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 1.5]], mf.UNNORMALIZED),
    ],
)
def test_run_matches_rk4_steps_over_a_short_window(n, N, g0, mode):
    if n == 1:
        f = field_from_modes(n, N, [((1, 0), 0.08, 0.0), ((0, 1), 0.0, 0.05)])
        phi0 = field_from_modes(n, N, [((1, 1), 0.01, 0.004)])
    else:
        f = None
        phi0 = field_from_modes(n, N, [((1, 0, 0, 0), 0.01, 0.0), ((0, 1, 1, 0), 0.006, 0.004)])
    bg = background(n=n, N=N, g0=g0, f=f)
    t_end = 20 * mf.current_cfl_bound(bg, mf.initial_state(bg, phi0))
    final, series = mf.run(bg, mf.RunConfig(mode=mode, t_end=t_end, record_every=20), phi0=phi0)
    reference = rk4_reference(bg, phi0, mode, t_end)
    assert series.termination == "t_end" and final.t == t_end
    assert abs(reference.t - t_end) < 1e-15
    assert np.abs(final.phi - reference.phi).max() <= 1e-9
    assert 0 < series.steps and series.rhs_evals >= 4 * series.steps + 1


def strong_twist_background():
    f = field_from_modes(1, 16, [((1, 0), -60.0, 0.0)])
    return mf.TorusBackground(n=1, N=16, g0=np.eye(1), f=f)


def test_strong_twist_fails_fast_and_keeps_its_series(monkeypatch):
    monkeypatch.setattr(solver, "TAIL_LIMIT", 1.0)
    cfg = mf.RunConfig(t_end=5.0, record_every=10)
    with pytest.raises(mf.StepFailure) as info:
        mf.run(strong_twist_background(), cfg)
    series = info.value.series
    assert series is not None and series.termination == info.value.termination
    assert series.termination in ("stalled", "step-failure")
    assert 0 < series.rhs_evals < 10_000
    assert len(series) >= 1 and not series.converged


def test_step_fails_after_max_halvings_of_lost_positivity(monkeypatch):
    # every stage after the first record loses positivity, so the first
    # step halves MAX_HALVINGS times and then fails
    real_stage = solver._Etdrk4.stage
    calls = []

    def stage(self, vk):
        calls.append(vk)
        if len(calls) > 1:
            raise mf.AdmissibilityError(1e-9, (3, 5), self.eps_pos)
        return real_stage(self, vk)

    monkeypatch.setattr(solver._Etdrk4, "stage", stage)
    with pytest.raises(mf.StepFailure, match="halvings") as info:
        mf.run(background(N=16), mf.RunConfig(t_end=0.01))
    err = info.value
    assert err.termination == "step-failure" == err.series.termination
    diag = err.diagnostics
    assert diag["final_dt"] == diag["requested_dt"] / 2**solver.MAX_HALVINGS
    assert diag["min_eig"] == 1e-9 and diag["location"] == (3, 5)
    assert len(err.series) == 1 and err.series.steps == 0
    # every attempt of the failing step counts as rejected, the last one too
    assert err.series.rejected == solver.MAX_HALVINGS + 1


def test_error_control_that_never_accepts_stalls(monkeypatch):
    # an infinite error estimate halves the step until it falls below the
    # stall step
    attempts = []

    def attempt(self, vk, ratio_k, h):
        attempts.append(h)
        return solver._Step(err=float("inf"))

    monkeypatch.setattr(solver._Etdrk4, "attempt", attempt)
    with pytest.raises(mf.StepFailure, match="stall step") as info:
        mf.run(background(N=16), mf.RunConfig(t_end=0.01))
    err = info.value
    assert err.termination == "stalled" == err.series.termination
    assert err.diagnostics["error"] == float("inf")
    assert err.diagnostics["dt"] == attempts[-1] / 2
    assert len(err.series) == 1 and err.series.steps == 0
    assert err.series.rejected == len(attempts) > 1


def test_spectral_tail_error_keeps_its_series():
    bg = background(N=16)
    rough = 1e-4 * np.random.default_rng(5).standard_normal(bg.shape)
    with pytest.raises(mf.SpectralTailError) as info:
        mf.run(bg, mf.RunConfig(t_end=0.2, record_every=1), phi0=rough)
    series = info.value.series
    assert series.termination == "spectral-tail"
    assert len(series) == 2 and series.steps >= 1
    diag = info.value.diagnostics
    assert diag["t"] == series.records[-1].t and diag["limit"] == solver.TAIL_LIMIT
    assert diag["tail"] > diag["limit"]


@pytest.mark.parametrize("dt", [None, 2e-4])
def test_records_spaced_by_record_every_cfl_steps(dt):
    bg = background(N=16)
    x, y = bg.coordinates()
    phi0 = 0.02 * np.cos(2 * np.pi * x) + 0.01 * np.sin(2 * np.pi * y)
    cfg = mf.RunConfig(dt=dt, t_end=0.3, record_every=25)
    _, series = mf.run(bg, cfg, phi0=phi0)
    t, floor = series.column("t"), series.column("min_eig")
    allowed = [cfg.record_every * _cfl_bound(bg, m) for m in floor[:-1]]
    assert np.all(np.diff(t) <= np.array(allowed) + 1e-12)
    assert t[-1] == cfg.t_end and len(series) >= 3


# ---------------------------------------------------------------------------
# curvature diagnostics
# ---------------------------------------------------------------------------


def test_flat_metric_has_zero_curvature():
    bg = background(N=16, g0=[[2.0]])
    state = mf.initial_state(bg)
    ric, scal = ricci_and_scalar(bg, state)
    assert np.abs(ric).max() == 0.0
    assert np.abs(scal).max() == 0.0


def test_scalar_curvature_linearization():
    # R = -Laplacian(Laplacian(phi)) + O(phi^2)
    bg = background(N=32)
    x, _ = bg.coordinates()
    amp = 1e-4
    phi = amp * np.cos(2 * np.pi * x)
    state = mf.initial_state(bg, phi)
    _, scal = ricci_and_scalar(bg, state)
    lam = np.pi**2  # heat rate of the (1,0) mode on g0 = 1
    predicted = -(lam**2) * phi
    assert np.abs(scal - predicted).max() < 0.01 * np.abs(predicted).max()


def test_total_scalar_curvature_vanishes():
    # n Ric wedge w^(n-1) = R w^n and the Ricci class is zero on the torus
    for n, N in ((1, 32), (2, 8)):
        bg = background(n=n, N=N)
        modes = [((1, 0) + (0, 0) * (n - 1), 0.02, 0.0)]
        if n == 2:
            modes.append(((0, 1, 1, 0), 0.015, 0.01))
        phi = bg.field_from_modes(modes)
        state = mf.initial_state(bg, phi)
        H = bg.complex_hessian(phi)
        det, _, _ = mf.metric_determinant_and_eigs(bg.g0, H)
        _, scal = ricci_and_scalar(bg, state)
        assert abs(float((scal * det).mean())) < 1e-8


# ---------------------------------------------------------------------------
# what a step and a record cost
# ---------------------------------------------------------------------------

def short_run_case(n):
    """A short run that records every few steps; n=2 has an off-diagonal g0."""
    if n == 1:
        f = field_from_modes(1, 16, [((1, 0), 0.08, 0.0), ((0, 1), 0.0, 0.05)])
        bg = background(N=16, g0=[[2.0]], f=f)
        phi0 = field_from_modes(1, 16, [((1, 1), 0.01, 0.004)])
        return bg, phi0, mf.RunConfig(mode=mf.NORMALIZED, t_end=0.05, record_every=5)
    g0 = [[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 1.5]]
    bg = background(n=2, N=8, g0=g0)
    phi0 = bg.field_from_modes([((1, 0, 0, 0), 0.01, 0.0), ((0, 1, 1, 0), 0.006, 0.004)])
    phi0 = phi0 + 1e-5 * np.random.default_rng(0).standard_normal(bg.shape)
    return bg, phi0, mf.RunConfig(t_end=0.05, record_every=5)


def _counting(monkeypatch, owner, name, counts, key):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("n, total", [(1, 70), (2, 274)])
def test_transform_budget_of_a_short_run(monkeypatch, n, total):
    # counted at the package's transform boundary, whichever way a transform
    # is computed: a stage is one inverse per Hessian component and one
    # forward transform; the result stage adds the inverse that forms phi,
    # the error estimate one inverse, and a record the inverse Ricci
    # transforms alone (its metric and the spectrum of log det are the
    # stage's, and its tail check reads the stage's half spectrum)
    import krflab.maflow.solver as solver

    bg, phi0, cfg = short_run_case(n)
    counts = {}
    for name in ("spectrum", "field"):
        _counting(monkeypatch, mf.TorusBackground, name, counts, name)
    _counting(monkeypatch, mf.TorusBackground, "fast_metric_fields", counts, "kernel")
    _counting(monkeypatch, mf.TorusBackground, "tail_energy_fraction", counts, "tail")
    _counting(monkeypatch, solver, "snapshot", counts, "snapshot")
    _, series = mf.run(bg, cfg, phi0=phi0)

    parts = 1 if n == 1 else 4
    steps, records, stages = series.steps, len(series), series.rhs_evals
    # every rejection here is the error control's: three stages, one estimate
    rejected = series.rejected
    assert stages == 1 + 4 * steps + 3 * rejected
    assert counts.pop("kernel") == stages
    assert counts.pop("snapshot") == records
    assert counts.pop("tail") == records - 1  # the start is not checked
    assert counts == {
        "spectrum": 1 + stages,
        "field": parts * (stages + records) + 2 * steps + rejected,
    }
    assert sum(counts.values()) == total


@pytest.mark.parametrize("n", [1, 2])
def test_series_tracks_the_accepted_step_sizes(monkeypatch, n):
    bg, phi0, cfg = short_run_case(n)
    accepted = []
    real_attempt = solver._Etdrk4.attempt

    def attempt(self, vk, ratio_k, h):
        step = real_attempt(self, vk, ratio_k, h)
        if step.metric is not None:
            accepted.append(h)
        return step

    monkeypatch.setattr(solver._Etdrk4, "attempt", attempt)
    _, series = mf.run(bg, cfg, phi0=phi0)
    assert series.steps == len(accepted) >= 3
    assert (series.dt_min, series.dt_max, series.dt_last) == (
        min(accepted), max(accepted), accepted[-1]
    )
    assert 0 < series.dt_min <= series.dt_last <= series.dt_max <= cfg.t_end
    assert series.dt_min < series.dt_max
    empty = mf.DiagnosticsSeries()
    assert (empty.dt_min, empty.dt_max, empty.dt_last) == (None, None, None)


@pytest.mark.parametrize("n", [1, 2])
def test_snapshot_from_the_accepted_stage_matches_the_one_from_phi(monkeypatch, n):
    import krflab.maflow.solver as solver

    bg, phi0, cfg = short_run_case(n)
    original = solver.snapshot
    pairs = []

    def both(bg, state, eps_pos=mf.EPS_POS, *, metric=None):
        assert metric is not None  # every record of a run reuses its stage
        rec = original(bg, state, eps_pos, metric=metric)
        pairs.append((rec.row(), original(bg, state, eps_pos).row()))
        return rec

    monkeypatch.setattr(solver, "snapshot", both)
    _, series = mf.run(bg, cfg, phi0=phi0)
    assert len(pairs) == len(series) >= 3
    got, want = np.array(pairs).transpose(1, 0, 2)
    assert np.array_equal(got[:, 0], want[:, 0])  # the times
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-14)


# ---------------------------------------------------------------------------
# the ETDRK4 coefficient table
# ---------------------------------------------------------------------------


def etd_exact(z: float, h: float) -> dict:
    """E, E2, Q, f1, f2, f3, h phi1 and h phi2 at z = L*h, as mpmath numbers;
    call it, and combine what it returns, at 90 digits.

    The closed forms divide by z^3, so near z = 1e-12 they cancel about 40
    digits, which 90 leave to spare.
    """
    z, h = mpmath.mpf(z), mpmath.mpf(h)
    ez = mpmath.exp(z)
    if z == 0:  # the removable singularity: the limits
        q, f1, f2, f3, p1, p2 = h / 2, h / 6, h / 6, h / 6, 1, mpmath.mpf(1) / 2
    else:
        q = h * (mpmath.exp(z / 2) - 1) / z
        f1 = h * (-4 - z + ez * (4 - 3 * z + z**2)) / z**3
        f2 = h * (2 + z + ez * (z - 2)) / z**3
        f3 = h * (-4 - 3 * z - z**2 + ez * (4 - z)) / z**3
        p1, p2 = (ez - 1) / z, (ez - 1 - z) / z**2
    return {
        "E": ez,
        "E2": mpmath.exp(z / 2),
        "Q": q,
        "f1": f1,
        "f2": f2,
        "f3": f3,
        "hphi1": h * p1,
        "hphi2": h * p2,
    }


def etd_reference(z: float, h: float) -> dict:
    """E, E2, Q, f1, f2 and f3 at z = L*h, rounded from ``etd_exact``.

    The embedded pair's error weights, g1 = f1 - h phi1 + h phi2 on N_v and
    g3 = f3 - h phi2 on N_c, are checked to equal -2 f2, the weight that
    ``_Etdrk4.attempt`` gives them.
    """
    with mpmath.workdps(90):
        row = etd_exact(z, h)
        hp1, hp2 = row.pop("hphi1"), row.pop("hphi2")
        for g in (row["f1"] - hp1 + hp2, row["f3"] - hp2):
            assert abs(g + 2 * row["f2"]) <= 1e-13 * abs(2 * row["f2"]), z
        return {name: float(value) for name, value in row.items()}


@pytest.mark.parametrize("mode", mf.MODES)
def test_etd_coefficients_match_mpmath(mode):
    # z = h*L takes the value 0 (the unnormalized k = 0 mode), values just
    # inside and just outside the Taylor series' disk |z| < _NEAR_ZERO,
    # values down to -600, where exp(z) is far below round-off, and steps
    # whose smallest nonzero |z| is 1e-12 or 1e-6, where the closed forms
    # cancel completely and only the series answers
    etd = solver._Etdrk4(background(N=16, g0=[[2.0]]), mode, mf.EPS_POS)
    values = etd.values
    smallest = np.abs(values[values != 0]).min()
    steps = [
        1e-12 / smallest,
        1e-6 / smallest,
        (1.0 - 1e-6) * solver._NEAR_ZERO / smallest,
        (1.0 + 1e-6) * solver._NEAR_ZERO / smallest,
        1e-3,
        600.0 / np.abs(values).max(),
    ]
    near = far = 0
    for h in steps:
        z = h * values
        near += int(np.sum(np.abs(z) < solver._NEAR_ZERO))
        far += int(np.sum(np.abs(z) >= solver._NEAR_ZERO))
        table = etd.coefficients(h)
        assert sorted(table) == sorted(etd_reference(0.0, 1.0))
        for i, zi in enumerate(z):
            want = etd_reference(zi, h)
            for name, value in table.items():
                assert abs(value[i] - want[name]) <= 1e-13 * abs(want[name]), (name, zi)
    assert near and far
    assert (0.0 in values) == (mode == mf.UNNORMALIZED)
    assert np.isclose(600.0 / np.abs(values).max() * values.min(), -600.0)


@pytest.mark.parametrize("series", [True, False])
def test_error_estimate_is_the_embedded_pairs_difference(monkeypatch, series):
    # err is sup|u4 - u2|, with u2 = E v + h phi1 N_v + h phi2 (N_c - N_v)
    # the embedded second-order solution: both are formed here from the
    # stages' N-hat at 90 digits, so that E v cancels exactly.  h puts every
    # L*h inside the Taylor series' disk, or most of them outside it.  The
    # state is four times short_run_case's, so that the estimate stands well
    # above the round-off of the sum that forms it
    bg, phi0, cfg = short_run_case(1)
    etd = solver._Etdrk4(bg, cfg.mode, mf.EPS_POS)
    vk = bg.spectrum(4.0 * phi0)
    ratio_k = solver._metric(bg, vk, mf.EPS_POS).ratio_k
    h = 0.9 * solver._NEAR_ZERO / np.abs(etd.values).max() if series else 0.05
    zs = h * etd.values
    assert np.all(np.abs(zs) < solver._NEAR_ZERO) == series
    stages = []
    real_nonlinear = solver._Etdrk4.nonlinear

    def nonlinear(self, vk):
        stages.append(real_nonlinear(self, vk))
        return stages[-1]

    monkeypatch.setattr(solver._Etdrk4, "nonlinear", nonlinear)
    err = etd.attempt(vk, ratio_k, h).err
    na, nb, nc = stages
    nv = ratio_k - etd.lap * vk
    diff = np.empty_like(vk)
    with mpmath.workdps(90):
        weights = [etd_exact(z, h) for z in zs]
        for i in np.ndindex(vk.shape):
            w = weights[etd.index[i]]
            v, n_v, n_a, n_b, n_c = (mpmath.mpc(x[i]) for x in (vk, nv, na, nb, nc))
            u4 = w["E"] * v + w["f1"] * n_v + 2 * w["f2"] * (n_a + n_b) + w["f3"] * n_c
            u2 = w["E"] * v + w["hphi1"] * n_v + w["hphi2"] * (n_c - n_v)
            diff[i] = complex(u4 - u2)
    want = float(np.abs(bg.field(diff)).max())
    assert want > 0 and abs(err - want) <= 1e-12 * want


@pytest.mark.parametrize("query", [mf.ma_rhs, mf.current_cfl_bound])
def test_pointwise_queries_transform_phi_alone(monkeypatch, query):
    # neither reads the spectrum of log(det / Omega), so the one forward
    # transform is the spectrum of phi
    bg, phi0, cfg = short_run_case(1)
    counts = {}
    _counting(monkeypatch, mf.TorusBackground, "spectrum", counts, "spectrum")
    query(bg, mf.initial_state(bg, phi0, cfg.mode))
    assert counts == {"spectrum": 1}
