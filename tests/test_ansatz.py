import dataclasses
import random
from fractions import Fraction as F

import numpy as np
import pytest

import krflab.ansatz as az
import oracles
from krflab import verify


def test_round_p1_linear_shrink():
    model = az.AnsatzModel.of(az.ROUND_P1, [1])
    system = az.reduce(model)
    ts = np.array([0.0, 0.1, 0.25])
    assert np.allclose(system.closed_form(ts)[:, 0], 1.0 - 2.0 * ts)
    assert system.extinction_time == F(1, 2)


def test_product_ec_fixed_point_start():
    model = az.AnsatzModel.of(az.PRODUCT_EC, [1, 2], mode=az.NORMALIZED)
    system = az.reduce(model)
    ts = np.linspace(0.0, 3.0, 7)
    vals = system.closed_form(ts)
    assert np.allclose(vals[:, 0], np.exp(-ts))
    assert np.allclose(vals[:, 1], 2.0)  # base starts at its fixed point


def test_product_ec_generic_base_relaxation():
    # b' = 2 - b from b0: b(t) = 2 + (b0 - 2) exp(-t), checked against RK4
    for b0 in (F(1), F(5), F(7, 2)):
        model = az.AnsatzModel.of(az.PRODUCT_EC, [3, b0], mode=az.NORMALIZED)
        traj = az.integrate(model, 5.0, dt=1e-3)
        expected = 2.0 + (float(b0) - 2.0) * np.exp(-traj.ts)
        assert np.abs(traj.coeffs[:, 1] - expected).max() < 1e-10


@pytest.mark.parametrize(
    "kind,scales,mode",
    [
        (az.ROUND_P1, [F(3, 2)], az.UNNORMALIZED),
        (az.ROUND_P1, [F(2)], az.NORMALIZED),
        (az.P1XP1, [F(3), F(1)], az.UNNORMALIZED),
        (az.P1XP1, [F(1), F(4)], az.NORMALIZED),
        (az.PRODUCT_EC, [F(1), F(5)], az.UNNORMALIZED),
        (az.PRODUCT_EC, [F(2), F(1, 2)], az.NORMALIZED),
    ],
)
def test_numeric_matches_closed_form_everywhere(kind, scales, mode):
    model = az.AnsatzModel.of(kind, scales, mode)
    system = az.reduce(model)
    horizon = 2.0
    if system.extinction_time is not None:
        horizon = min(horizon, float(system.extinction_time) * 0.9)
    traj = az.integrate(model, horizon, dt=1e-3)
    assert np.abs(traj.coeffs - traj.closed()).max() < 1e-10


def test_extinction_detection_round_p1():
    model = az.AnsatzModel.of(az.ROUND_P1, [1])
    traj = az.integrate(model, 1.0, dt=1e-3)
    assert traj.extinct
    assert abs(traj.extinction_numeric - 0.5) < 1e-12
    assert traj.ts[-1] < 0.5


def test_extinction_detection_p1xp1_collapsed_limit():
    model = az.AnsatzModel.of(az.P1XP1, [3, 1])
    traj = az.integrate(model, 2.0, dt=1e-3)
    assert traj.extinct and abs(traj.extinction_numeric - 0.5) < 1e-12
    # surviving scale heads to 2, volume to zero: a collapsed limit
    assert abs(traj.coeffs[-1, 0] - (3.0 - 2.0 * traj.ts[-1])) < 1e-12
    assert traj.volume()[-1] == pytest.approx(0.0, abs=2e-2)


def test_product_ec_monotone_immortal():
    model = az.AnsatzModel.of(az.PRODUCT_EC, [3, 5], mode=az.NORMALIZED)
    traj = az.integrate(model, 10.0, dt=1e-2)
    assert not traj.extinct
    a, b = traj.coeffs[:, 0], traj.coeffs[:, 1]
    assert (np.diff(a) < 0).all() and a[-1] < 1e-3  # fiber scale dies
    assert (np.diff(b) < 0).all() and abs(b[-1] - 2.0) < 1e-3  # base relaxes to 2


def test_einstein_residual_closed_forms():
    # residual |b - 2| is |b0 - 2| exp(-t)
    for b0, coeff in ((F(1), 1.0), (F(5), 3.0)):
        model = az.AnsatzModel.of(az.PRODUCT_EC, [1, b0], mode=az.NORMALIZED)
        traj = az.integrate(model, 10.0, dt=1e-2)
        res = az.einstein_residual(model, traj)
        assert np.abs(res - coeff * np.exp(-traj.ts)).max() < 1e-9
        if b0 == F(1):
            assert res[-1] < 5e-5  # value at t = 10 under the documented bound


def test_einstein_residual_zero_at_fixed_point():
    model = az.AnsatzModel.of(az.PRODUCT_EC, [1, 2], mode=az.NORMALIZED)
    traj = az.integrate(model, 4.0, dt=1e-2)
    assert np.abs(az.einstein_residual(model, traj)).max() < 1e-12


def test_einstein_residual_wrong_kind_rejected():
    model = az.AnsatzModel.of(az.ROUND_P1, [1])
    traj = az.integrate(model, 0.4, dt=1e-2)
    with pytest.raises(ValueError):
        az.einstein_residual(model, traj)


def test_collapse_profile_facts():
    model = az.AnsatzModel.of(az.PRODUCT_EC, [3, 4], mode=az.NORMALIZED)
    traj = az.integrate(model, 8.0, dt=1e-3)
    prof = az.collapse_profile(model, traj)
    # the reported rescaled fiber coefficient is the computed exp(t) * a(t)
    assert np.array_equal(prof.fiber_scale_adjusted, np.exp(traj.ts) * traj.coeffs[:, 0])
    assert prof.fiber_adjusted_max_error < 1e-10
    # lower bound on the base scale
    assert prof.schwarz_floor >= min(4.0, 2.0) - 1e-12
    # base trace converges to 1 at rate exp(-t), dominating exp(-t/8)
    gap = np.abs(prof.base_scale - 2.0)
    assert (gap <= 2.0 * np.exp(-traj.ts / 8.0) + 1e-12).all()
    assert (gap <= 2.0 * np.exp(-traj.ts) + 1e-10).all()


def test_collapse_row_fails_on_corrupted_trajectory(monkeypatch):
    real = az.integrate

    def corrupted(model, t_end, dt=1e-3):
        traj = real(model, t_end, dt)
        traj.coeffs[-1, 0] *= 1.0 + 1e-9
        return traj

    monkeypatch.setattr(az, "integrate", corrupted)
    model = az.AnsatzModel.of(az.PRODUCT_EC, [3, 4], mode=az.NORMALIZED)
    traj = az.integrate(model, 2.0, dt=1e-2)
    prof = az.collapse_profile(model, traj)
    assert abs(prof.fiber_scale_adjusted[-1] - 3.0) > 1e-9
    rows = verify.criterion_product_collapse(verify.VerifyOptions()).rows
    fiber = [r for r in rows if "exp(t) * fiber scale" in r.check]
    assert len(fiber) == 3 and not any(r.passed for r in fiber)


def test_collapse_profile_constant_base():
    model = az.AnsatzModel.of(az.PRODUCT_EC, [1, 2], mode=az.NORMALIZED)
    traj = az.integrate(model, 3.0, dt=1e-2)
    prof = az.collapse_profile(model, traj)
    assert np.abs(prof.base_scale - 2.0).max() < 1e-12


def test_normalization_change_of_variables():
    # unnormalized trajectory related to the normalized one by
    # scale(t) = unnormalized_scale(s) / (1+s) with t = log(1+s)
    for kind, scales in ((az.ROUND_P1, [F(4)]), (az.PRODUCT_EC, [F(2), F(3)])):
        un = az.reduce(az.AnsatzModel.of(kind, scales, az.UNNORMALIZED))
        no = az.reduce(az.AnsatzModel.of(kind, scales, az.NORMALIZED))
        s = np.linspace(0.0, 0.6, 13)
        t = np.log1p(s)
        lhs = no.closed_form(t)
        rhs = un.closed_form(s) / (1.0 + s)[:, None]
        assert np.abs(lhs - rhs).max() < 1e-9


def test_crosscheck_round_p1():
    chk = az.crosscheck_T(az.AnsatzModel.of(az.ROUND_P1, [7]))
    assert chk.equal and chk.ansatz_time == F(7, 2) == chk.cohomology_time


def test_crosscheck_p1xp1():
    chk = az.crosscheck_T(az.AnsatzModel.of(az.P1XP1, [2, 6]))
    assert chk.equal and chk.ansatz_time == F(1)


def test_crosscheck_product_ec_immortal():
    chk = az.crosscheck_T(az.AnsatzModel.of(az.PRODUCT_EC, [1, 1]))
    assert chk.equal and chk.ansatz_time is None and chk.cohomology_time is None


def test_crosscheck_random_rational_scales():
    rng = random.Random(71)
    for _ in range(20):
        lam = F(rng.randint(1, 40), rng.randint(1, 12))
        assert az.crosscheck_T(az.AnsatzModel.of(az.ROUND_P1, [lam])).equal
        l2 = F(rng.randint(1, 40), rng.randint(1, 12))
        assert az.crosscheck_T(az.AnsatzModel.of(az.P1XP1, [lam, l2])).equal


def test_crosscheck_integrates_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("crosscheck_T integrated")

    monkeypatch.setattr(az, "integrate", refuse)
    for model in (
        az.AnsatzModel.of(az.ROUND_P1, [F(7, 3)]),
        az.AnsatzModel.of(az.P1XP1, [2, F(5, 4)]),
        az.AnsatzModel.of(az.PRODUCT_EC, [1, 3]),
    ):
        assert az.crosscheck_T(model).equal


def test_crosscheck_reads_the_models_it_is_given():
    from krflab.cohomology import models as coh_models

    asked = []

    def lookup(name):
        asked.append(name)
        return coh_models.get_model("torus1")  # c1 = 0: the flow never ends

    chk = az.crosscheck_T(az.AnsatzModel.of(az.ROUND_P1, [3]), lookup)
    assert asked == ["cp1"]
    assert chk.ansatz_time == F(3, 2) and chk.cohomology_time is None and not chk.equal


def test_crosscheck_builds_the_builtin_models_once(monkeypatch):
    from krflab.cohomology import models as coh_models

    monkeypatch.setattr(coh_models, "_BUILT", {})  # as in a fresh process
    checks = [
        az.AnsatzModel.of(az.ROUND_P1, [F(7, 3)]),
        az.AnsatzModel.of(az.P1XP1, [2, F(5, 4)]),
        az.AnsatzModel.of(az.PRODUCT_EC, [1, 3]),
    ]
    first = [az.crosscheck_T(model) for model in checks]
    built, read = [], coh_models.model_from_dict
    monkeypatch.setattr(
        coh_models, "model_from_dict", lambda data: built.append(data["name"]) or read(data)
    )
    for _ in range(3):
        assert [az.crosscheck_T(model) for model in checks] == first
    assert built == []
    assert az.cohomology_counterpart(checks[0])[0] is coh_models.get_model("cp1")


def test_cross_time_rows_fail_on_a_corrupted_sphere():
    from krflab.cohomology import models as coh_models

    cat = coh_models.builtin_models()
    cat["cp1"] = dataclasses.replace(cat["cp1"], c1twopi=coh_models.ClassVector.of([3]))
    rows = verify.run_criterion(7, verify.VerifyOptions(models=cat)).rows
    assert [r.passed for r in rows] == [False, True, True]


def test_cross_time_numeric_row_fails_on_a_shifted_extinction(monkeypatch):
    real = az.integrate

    def shifted(*args, **kwargs):
        traj = real(*args, **kwargs)
        traj.extinction_numeric += 1e-6
        return traj

    monkeypatch.setattr(verify.az, "integrate", shifted)
    rows = verify.run_criterion(7, verify.VerifyOptions()).rows
    assert [r.passed for r in rows] == [True, True, False]
    assert rows[2].check == "RK4 extinction within 1e-11 of the closed form"
    assert float(rows[2].got) == pytest.approx(1e-6, rel=1e-3)


def test_cross_time_numeric_row_fails_on_nan_and_on_no_extinction(monkeypatch):
    real = az.integrate
    for corrupt in (float("nan"), None):

        def broken(*args, **kwargs):
            traj = real(*args, **kwargs)
            if corrupt is None:
                traj.extinct, traj.extinction_numeric = False, None
            else:
                traj.extinction_numeric = corrupt
            return traj

        monkeypatch.setattr(verify.az, "integrate", broken)
        assert not verify.run_criterion(7, verify.VerifyOptions()).rows[2].passed


def test_model_validation():
    with pytest.raises(ValueError):
        az.AnsatzModel.of("klein-bottle", [1])
    with pytest.raises(ValueError):
        az.AnsatzModel.of(az.ROUND_P1, [1, 2])
    with pytest.raises(ValueError):
        az.AnsatzModel.of(az.P1XP1, [1, 0])


def test_round_p1_volume_tracks_scale_and_collapse():
    import krflab.cohomology as coh
    from krflab.cohomology import models as coh_models

    model = az.AnsatzModel.of(az.ROUND_P1, [F(3, 2)])
    traj = az.integrate(model, 0.7, dt=1e-3)
    # volume column is the scale itself (unit-area class, n = 1)
    assert np.abs(traj.volume() - (1.5 - 2.0 * traj.ts)).max() < 1e-12
    # the class engine agrees the extinction is volume-collapsed
    sphere = coh_models.get_model("cp1")
    assert not coh.is_noncollapsed(sphere, coh.ClassVector.of([F(3, 2)]))


@pytest.mark.parametrize(
    "kind, scales",
    [
        (az.ROUND_P1, [F(1234, 1000)]),
        (az.P1XP1, [F(3), F(7, 5)]),  # the second scale dies first
        (az.PRODUCT_EC, [F(2), F(1, 2)]),
        (az.P1XP1, [F(7, 5), F(3)]),  # the first scale dies first
        (az.P1XP1, [F(2), F(2)]),  # both die on one step
    ],
)
@pytest.mark.parametrize("mode", [az.UNNORMALIZED, az.NORMALIZED])
@pytest.mark.parametrize("t_end, dt", [(2.0, 1e-3), (1.2345, 1e-2), (1.05, 0.6)])
def test_float_steps_are_bit_identical_to_the_array_oracle(kind, scales, mode, t_end, dt):
    model = az.AnsatzModel.of(kind, scales, mode)
    traj = az.integrate(model, t_end, dt=dt)
    ts, coeffs, extinct, ext_time = oracles.ansatz_integrate(model, t_end, dt=dt)
    assert np.array_equal(traj.ts, ts) and np.array_equal(traj.coeffs, coeffs)
    assert traj.coeffs.shape == coeffs.shape and traj.coeffs.dtype == coeffs.dtype
    assert traj.extinct == extinct and traj.extinction_numeric == ext_time
    # the spheres die inside the window, the product never does; 1.2345 is
    # not a multiple of 1e-2, so that run also ends on a short step
    assert traj.extinct == (kind != az.PRODUCT_EC)
    if traj.extinct:
        assert traj.ts[-1] < traj.extinction_numeric < traj.ts[-1] + dt
    else:
        assert traj.ts[-1] == pytest.approx(t_end, abs=1e-12)
    # 1.05 is a step of 0.6 and a short one of 0.45: the unnormalized
    # spheres and the normalized [2, 2] outlive the first and die in the short one
    if (t_end, dt) == (1.05, 0.6) and traj.extinct:
        if mode == az.UNNORMALIZED or scales == [2, 2]:
            assert traj.ts.tolist() == [0.0, 0.6] and traj.extinction_numeric > 0.6
