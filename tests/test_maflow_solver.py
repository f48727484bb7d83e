import numpy as np
import pytest

import krflab.maflow as mf
from oracles import solve_stationary_normalized


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
# step
# ---------------------------------------------------------------------------


def test_stationary_point_is_exact_fixed_point():
    bg = background(N=64)
    state = mf.initial_state(bg)
    dt = mf.current_cfl_bound(bg, state)
    for _ in range(25):
        state = mf.step(bg, state, dt)
    assert np.abs(state.phi).max() == 0.0


def test_step_matches_euler_to_second_order():
    bg = background()
    x, _ = bg.coordinates()
    phi0 = 0.05 * np.cos(2 * np.pi * x)
    state = mf.initial_state(bg, phi0)
    rhs0 = mf.ma_rhs(bg, state)
    for dt in (1e-5, 2e-5):
        new = mf.step(bg, state, dt)
        euler = phi0 + dt * rhs0
        # RK4 - Euler = O(dt^2), with an O(1) curvature constant
        assert np.abs(new.phi - euler).max() < 100 * dt**2


def test_step_rejects_oversized_dt():
    bg = background()
    state = mf.initial_state(bg)
    bound = mf.current_cfl_bound(bg, state)
    with pytest.raises(ValueError):
        mf.step(bg, state, 10 * bound)


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
    assert abs(rate - bg.lowest_heat_rate()) < 0.1 * bg.lowest_heat_rate()


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
        lo = mf.step(bg, lo, dt)
        hi = mf.step(bg, hi, dt)
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
    bg = background(N=16)
    f = bg.field_from_modes([((1, 0), 0.05, 0.0), ((0, 1), 0.0, 0.03)])
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


def test_run_reports_step_failure_when_twist_drives_degeneracy():
    # a strong negative twist inflates the potential until positivity dies
    bg0 = background(N=16)
    f = bg0.field_from_modes([((1, 0), -60.0, 0.0)])
    bg = mf.TorusBackground(n=1, N=16, g0=np.eye(1), f=f)
    cfg = mf.RunConfig(t_end=5.0, record_every=10, tail_limit=1.0)
    with pytest.raises((mf.StepFailure, mf.AdmissibilityError)):
        mf.run(bg, cfg)


# ---------------------------------------------------------------------------
# curvature diagnostics
# ---------------------------------------------------------------------------


def test_flat_metric_has_zero_curvature():
    bg = background(N=16, g0=[[2.0]])
    state = mf.initial_state(bg)
    ric, scal = mf.ricci_and_scalar(bg, state)
    assert np.abs(ric).max() == 0.0
    assert np.abs(scal).max() == 0.0


def test_scalar_curvature_linearization():
    # R = -Laplacian(Laplacian(phi)) + O(phi^2)
    bg = background(N=32)
    x, _ = bg.coordinates()
    amp = 1e-4
    phi = amp * np.cos(2 * np.pi * x)
    state = mf.initial_state(bg, phi)
    _, scal = mf.ricci_and_scalar(bg, state)
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
        _, scal = mf.ricci_and_scalar(bg, state)
        assert abs(float((scal * det).mean())) < 1e-8
