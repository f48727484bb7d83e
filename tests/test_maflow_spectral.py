import numpy as np
import pytest
import sympy as sp

import krflab.maflow as mf
from krflab.maflow.background import MATRIX_MAX_N, _det_and_eigs, _trace_ratio
from oracles import full_grid_tail_fraction, laplacian_multiplier, ricci_and_scalar

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_zero_field_has_zero_hessian():
    bg = mf.TorusBackground(n=1, N=16, g0=[[1.0]])
    H = bg.complex_hessian(np.zeros(bg.shape))
    assert np.abs(H).max() == 0.0


def test_single_mode_n1_analytic():
    bg = mf.TorusBackground(n=1, N=32, g0=[[1.0]])
    x, y = bg.coordinates()
    H = bg.complex_hessian(np.cos(2 * np.pi * x))
    expected = -np.pi**2 * np.cos(2 * np.pi * x)
    assert np.abs(H[..., 0, 0] - expected).max() < 1e-10 * np.pi**2


def _sympy_hessian(expr, syms, n):
    """Mixed complex Hessian of a real expression via symbolic calculus."""
    xs = syms[0::2]
    ys = syms[1::2]
    out = {}
    for j in range(n):
        dj = (sp.diff(expr, xs[j]) - sp.I * sp.diff(expr, ys[j])) / 2
        for k in range(n):
            djk = (sp.diff(dj, xs[k]) + sp.I * sp.diff(dj, ys[k])) / 2
            out[(j, k)] = djk
    return out


@pytest.mark.parametrize(
    "expr_builder",
    [
        lambda x1, y1, x2, y2: sp.cos(2 * sp.pi * x1) * sp.cos(2 * sp.pi * y2),
        lambda x1, y1, x2, y2: sp.sin(2 * sp.pi * (x1 + y1))
        + sp.cos(2 * sp.pi * (x2 - 2 * y2)),
    ],
)
def test_two_dim_modes_match_symbolic_oracle(expr_builder):
    bg = mf.TorusBackground(n=2, N=16, g0=np.eye(2))
    syms = sp.symbols("x1 y1 x2 y2", real=True)
    expr = expr_builder(*syms)
    coords = bg.coordinates()
    phi = sp.lambdify(syms, expr, "numpy")(*coords) + np.zeros(bg.shape)
    H = bg.complex_hessian(phi)
    symbolic = _sympy_hessian(expr, syms, 2)
    for (j, k), sym_expr in symbolic.items():
        fn = sp.lambdify(syms, sym_expr, "numpy")
        expected = np.asarray(fn(*coords), dtype=complex) + np.zeros(bg.shape)
        assert np.abs(H[..., j, k] - expected).max() < 1e-9


def test_hessian_hermitian_pointwise():
    rng = np.random.default_rng(3)
    bg = mf.TorusBackground(n=2, N=8, g0=[[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 1.5]])
    modes = [((1, 0, 0, 0), 0.3, 0.1), ((0, 1, 1, 0), 0.2, 0.0), ((1, 1, 0, 1), 0.0, 0.15)]
    phi = bg.field_from_modes(modes) + rng.standard_normal(bg.shape) * 1e-3
    H = bg.complex_hessian(phi)
    assert np.abs(H - H.conj().swapaxes(-1, -2)).max() < 1e-12
    assert np.abs(H[..., 0, 0].imag).max() == 0.0  # stored as real parts


@pytest.mark.parametrize("N", [32, 64])
def test_spectral_consistency_pure_modes_n1(N):
    # relative error below 1e-10 for any pure Fourier mode at N >= 32
    bg = mf.TorusBackground(n=1, N=N, g0=[[0.5]])
    x, y = bg.coordinates()
    for kx, ky in [(1, 0), (0, 1), (3, 2), (5, 7)]:
        phi = np.cos(2 * np.pi * (kx * x + ky * y))
        H = bg.complex_hessian(phi)[..., 0, 0].real
        expected = -np.pi**2 * (kx**2 + ky**2) * phi
        rel = np.abs(H - expected).max() / np.abs(expected).max()
        assert rel < 1e-10


def test_spectral_consistency_n2_at_32():
    bg = mf.TorusBackground(n=2, N=32, g0=np.eye(2))
    coords = bg.coordinates()
    phi = np.cos(2 * np.pi * (coords[0] + 2 * coords[3]))
    H = bg.complex_hessian(phi)
    # w = (i, 2): H_{00} = -pi^2 |i|^2 phi, H_{11} = -4 pi^2 phi,
    # H_{01} = -pi^2 * i * 2 * phi
    assert np.abs(H[..., 0, 0] + np.pi**2 * phi).max() < 1e-10 * np.pi**2
    assert np.abs(H[..., 1, 1] + 4 * np.pi**2 * phi).max() < 4e-10 * np.pi**2
    assert np.abs(H[..., 0, 1] + 2j * np.pi**2 * phi).max() < 2e-10 * np.pi**2


COMPLEX_G0 = [[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 1.5]]


def heat_rates(bg):
    """Sorted distinct positive decay rates of -laplacian_symbol, the ETD's L."""
    rates = -bg.laplacian_symbol
    return np.unique(rates[rates > 0])


def test_heat_rates_closed_form():
    bg = mf.TorusBackground(n=1, N=16, g0=[[0.5]])
    rates = heat_rates(bg)
    assert abs(rates[0] - 2 * np.pi**2) < 1e-12  # pi^2 (k^2+l^2)/g0 at (1,0)
    bg2 = mf.TorusBackground(n=1, N=16, g0=[[1.0]])
    assert abs(heat_rates(bg2)[0] - np.pi**2) < 1e-12
    bg3 = mf.TorusBackground(n=2, N=8, g0=COMPLEX_G0)
    oracle = -laplacian_multiplier(bg3)
    assert abs(heat_rates(bg3)[0] - oracle[oracle > 1e-9].min()) < 1e-12
    assert abs(heat_rates(bg3)[-1] - oracle.max()) < 1e-10
    # pointwise: the half grid is the full grid's last axis cut at N/2
    half = laplacian_multiplier(bg3)[..., : bg3.N // 2 + 1]
    assert np.abs(bg3.laplacian_symbol - half).max() < 1e-10


@pytest.mark.parametrize(
    "n,N,g0", [(1, 32, [[0.7]]), (2, 8, np.eye(2)), (2, 8, COMPLEX_G0)]
)
def test_metric_kernel_matches_linalg_oracle(n, N, g0):
    bg = mf.TorusBackground(n=n, N=N, g0=g0)
    rng = np.random.default_rng(11)
    modes = [
        ((1,) + (0,) * (2 * n - 1), 0.01, 0.004),
        ((0, 1) * n, 0.006, 0.0),
        ((1, 1) + (0, 1) * (n - 1), 0.0, 0.005),
    ]
    # white noise reaches every mode, the Nyquist planes included
    phi = bg.field_from_modes(modes) + 1e-5 * rng.standard_normal(bg.shape)
    G = bg.g0 + bg.complex_hessian(phi)
    eigs = np.linalg.eigvalsh(G)
    inv = np.linalg.inv(G)

    g, det, lo = bg.fast_metric_fields(bg.spectrum(phi))
    hi = _det_and_eigs(g)[2]
    assert np.abs(det - np.linalg.det(G).real).max() < 1e-13
    assert np.abs(lo - eigs[..., 0]).max() < 1e-13
    assert np.abs(hi - eigs[..., -1]).max() < 1e-13
    # the adapter for Hessian arrays is the same closed form, bit for bit
    adapter = mf.metric_determinant_and_eigs(bg.g0, bg.complex_hessian(phi))
    for got, want in zip(adapter, (det, lo, hi)):
        assert np.array_equal(got, want)

    # tr(g^{-1} E) over a Hermitian basis E reads off the entries of g^{-1}
    one, zero = np.ones(bg.shape), np.zeros(bg.shape)
    if n == 1:
        assert np.abs(_trace_ratio(g, det, [one]) - inv[..., 0, 0].real).max() < 1e-13
    else:
        read = [
            _trace_ratio(g, det, basis)
            for basis in ([one, zero, zero, zero], [zero, one, zero, zero],
                          [zero, zero, one, zero], [zero, zero, zero, one])
        ]
        assert np.abs(read[0] - inv[..., 0, 0].real).max() < 1e-13
        assert np.abs(read[1] - inv[..., 1, 1].real).max() < 1e-13
        assert np.abs(read[2] - 2 * inv[..., 0, 1].real).max() < 1e-13
        assert np.abs(read[3] - 2 * inv[..., 0, 1].imag).max() < 1e-13

    state = mf.initial_state(bg, phi)
    ric = -bg.complex_hessian(np.log(np.linalg.det(G).real))
    R = np.einsum("...jk,...kj->...", inv, ric).real
    _, scal = ricci_and_scalar(bg, state)
    assert np.abs(scal - R).max() < 1e-12 * np.abs(R).max()

    rec = mf.snapshot(bg, state)
    assert rec.sup_phidot == float(np.abs(mf.ma_rhs(bg, state)).max())
    assert rec.min_eig == float(lo.min())
    assert abs(rec.inf_R - R.min()) < 1e-12 * np.abs(R).max()
    assert abs(rec.sup_R - R.max()) < 1e-12 * np.abs(R).max()
    trace0 = np.einsum("jk,...kj->...", np.linalg.inv(bg.g0), G).real
    assert abs(rec.sup_trace - trace0.max()) < 1e-13
    assert abs(rec.volume - np.linalg.det(G).real.mean()) < 1e-13


def test_field_from_modes_constant_and_waves():
    bg = mf.TorusBackground(n=1, N=8, g0=[[1.0]])
    f = bg.field_from_modes([((0, 0), 0.25, 0.0), ((1, 0), 1.0, 0.0)])
    x, _ = bg.coordinates()
    assert np.abs(f - (0.25 + np.cos(2 * np.pi * x))).max() < 1e-14


@pytest.mark.parametrize("n, N", [(n, N) for n in (1, 2) for N in (4, 8, 16, 32)])
def test_field_by_dft_matrices_reads_a_half_spectrum_as_irfftn(n, N):
    # the planes 0 and N/2 of an ETD stage's half spectrum need not be
    # conjugate-even; irfftn reads only the real part of their inverse
    assert N <= MATRIX_MAX_N
    bg = mf.TorusBackground(n=n, N=N, g0=np.eye(n))
    rng = np.random.default_rng(10 * N + n)
    even = bg.spectrum(rng.standard_normal(bg.shape))
    planes = even.copy()
    for j in (0, -1):
        size = planes[..., j].shape
        planes[..., j] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    for vk in (even, planes):
        want = np.fft.irfftn(vk, s=bg.shape, axes=bg._axes)
        assert np.abs(bg.field(vk) - want).max() <= 1e-13 * np.abs(want).max()
    dc = np.zeros_like(even)
    dc.flat[0] = 0.3 - 0.7j
    assert np.all(bg.field(dc) == 0.3 / N ** (2 * n))


@pytest.mark.parametrize("n, N", [(1, 8), (1, 16), (1, 64), (2, 8), (2, 16)])
def test_spectrum_is_rfftn_to_the_bit(n, N):
    bg = mf.TorusBackground(n=n, N=N, g0=np.eye(n))
    rng = np.random.default_rng(100 * n + N)
    for psi in (rng.standard_normal(bg.shape), bg.field_from_modes([((1,) * (2 * n), 0.3, -0.2)])):
        assert np.array_equal(bg.spectrum(psi), np.fft.rfftn(psi, axes=bg._axes))
    constant = bg.spectrum(np.full(bg.shape, 0.7))
    assert constant.flat[0] == 0.7 * N ** (2 * n)
    constant.flat[0] = 0.0
    assert np.all(constant == 0.0)  # exact zeros off the DC mode


def test_field_above_the_matrix_grids_is_irfftn():
    bg = mf.TorusBackground(n=1, N=2 * MATRIX_MAX_N, g0=[[1.0]])
    vk = bg.spectrum(np.random.default_rng(0).standard_normal(bg.shape))
    vk[..., -1] += 0.5j  # not conjugate-even on the Nyquist plane
    assert np.array_equal(bg.field(vk), np.fft.irfftn(vk, s=bg.shape, axes=bg._axes))


def test_background_validation():
    with pytest.raises(ValueError):
        mf.TorusBackground(n=3, N=16, g0=np.eye(3))
    with pytest.raises(ValueError):
        mf.TorusBackground(n=1, N=17, g0=[[1.0]])
    with pytest.raises(ValueError):
        mf.TorusBackground(n=1, N=16, g0=[[-1.0]])
    with pytest.raises(ValueError):
        mf.TorusBackground(n=2, N=8, g0=[[1.0, 0.5], [0.2, 1.0]])


def _nyquist_field(bg):
    """Low modes plus energy on both self-conjugate planes of the last axis."""
    idx = np.indices(bg.shape)
    sign_last, sign_first = (-1.0) ** idx[-1], (-1.0) ** idx[0]
    low = bg.field_from_modes([((1,) + (0,) * (2 * bg.n - 1), 0.3, 0.1)])
    return low + 0.2 * sign_last + 0.05 * sign_first * sign_last + 0.1 * sign_first


@pytest.mark.parametrize("n, N", [(1, 8), (1, 16), (2, 8)])
def test_tail_fraction_on_the_half_grid_matches_the_full_grid(n, N):
    bg = mf.TorusBackground(n=n, N=N, g0=np.eye(n))
    rng = np.random.default_rng(10 * n + N)
    smooth = bg.field_from_modes([((0, 1) * n, 0.02, 0.01)])
    fields = [
        rng.standard_normal(bg.shape),
        smooth + 1e-4 * rng.standard_normal(bg.shape),
        _nyquist_field(bg),
    ]
    for phi in fields:
        want = full_grid_tail_fraction(bg, phi)
        assert want > 0.0
        assert abs(bg.tail_energy_fraction(bg.spectrum(phi)) - want) <= 1e-13 * want
    constant = np.full(bg.shape, 0.3)
    assert full_grid_tail_fraction(bg, constant) == 0.0
    assert bg.tail_energy_fraction(bg.spectrum(constant)) == 0.0


def test_tail_fraction_reads_the_field_of_any_half_spectrum():
    # a half spectrum that is not conjugate-even on the planes 0 and N/2
    # counts only the part that irfftn keeps
    bg = mf.TorusBackground(n=2, N=8, g0=np.eye(2))
    rng = np.random.default_rng(3)
    vk = bg.spectrum(_nyquist_field(bg))
    vk = vk + 1e-3 * (rng.standard_normal(vk.shape) + 1j * rng.standard_normal(vk.shape))
    want = full_grid_tail_fraction(bg, bg.field(vk))
    assert abs(bg.tail_energy_fraction(vk) - want) <= 1e-13 * want


@pytest.mark.parametrize(
    "n, N, g0",
    [(1, 16, [[2.0]]), (2, 8, np.eye(2)), (2, 8, [[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 1.5]])],
)
def test_hessian_from_the_spectrum_matches_the_field_path(n, N, g0):
    # the stages build the Hessian from the half spectrum without forming
    # phi; that must be the Hessian of phi = irfftn(vk) even where vk, as a
    # combination of ETD terms, is not conjugate-even on the planes 0, N/2
    bg = mf.TorusBackground(n=n, N=N, g0=g0)
    rng = np.random.default_rng(N + n)
    vk = bg.spectrum(rng.standard_normal(bg.shape))
    vk = vk + 0.5 * (rng.standard_normal(vk.shape) + 1j * rng.standard_normal(vk.shape))
    got = bg._hessian_parts(vk)
    H = bg.complex_hessian(bg.field(vk))
    want = [H[..., 0, 0].real]
    if n == 2:
        want += [H[..., 1, 1].real, H[..., 0, 1].real, H[..., 0, 1].imag]
    scale = max(np.abs(w).max() for w in want)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-13 * scale
    g, det, lo = bg.fast_metric_fields(vk)
    for part, w, base in zip(g, want, bg._g0_parts):
        assert np.abs(part - (w + base)).max() <= 1e-13 * scale
    assert np.array_equal((det, lo), _det_and_eigs(g)[:2])
